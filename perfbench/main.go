// Command perfbench is the repository's same-host benchmark. It runs
// one named workload against the tree it was built from, checks the
// workload's outputs, and prints every metric by name with its unit and
// the count it rests on; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// Workloads (see README.md for why each was chosen):
//
//	sweep  Fig. 18 on six apps at the default trace length (SoA kernel)
//	mix    Fig. 15's eleven quad-core mixes at reduced length (RunMix)
//	serve  siptd on loopback: open-loop request mix, then a closed loop
//
// With -trace 0 a run reports the end-to-end metrics; with -trace 1 it
// repeats the workload's work under a span recorder and a CPU profile
// and reports the per-layer metrics instead. Build and run it through
// run.sh, which also builds siptd and tracegen from the same tree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// endToEnd is every end-to-end metric; an untraced run of any workload
// reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sim_rec_per_s", "records/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is every per-layer metric; a traced run of any workload
// reports all of them, with 0 (and a base saying so) for layers the
// workload does not exercise.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_ns_per_rec", "ns/rec"},
	{"sim.kernel_ns_per_lane_rec", "ns/rec"},
	{"sim.mix_ns_per_core_rec", "ns/rec"},
	{"workload.self_pct", "%"},
	{"vm.self_pct", "%"},
	{"cpu.self_pct", "%"},
	{"cache.self_pct", "%"},
	{"core.self_pct", "%"},
	{"tlb.self_pct", "%"},
	{"predictor.self_pct", "%"},
	{"dram.self_pct", "%"},
	{"energy.self_pct", "%"},
	{"sim.self_pct", "%"},
	{"exp.self_pct", "%"},
	{"runtime.gc_pct", "%"},
	{"sim.allocs_per_krec", "count"},
	{"sim.bytes_per_rec", "B"},
	{"replay.pool_hit_ratio", "ratio"},
	{"exp.memo_hit_ratio", "ratio"},
	{"exp.simulations", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.get_p50_ms", "ms"},
	{"store.put_p50_ms", "ms"},
	{"tracefile.decode_ns_per_rec", "ns/rec"},
	{"journal.appends_per_job", "count"},
	{"journal.syncs_per_job", "count"},
	{"journal.append_sync_p50_ms", "ms"},
	{"sched.queue_wait_p50_ms", "ms"},
	{"sched.queue_wait_p99_ms", "ms"},
	{"serve.run_elapsed_p50_ms", "ms"},
	{"serve.admit_p50_ms", "ms"},
	{"serve.admit_p99_ms", "ms"},
	{"serve.job_p50_ms", "ms"},
	{"serve.job_p99_ms", "ms"},
	{"serve.warm_sweep_ms", "ms"},
	{"serve.upload_p50_ms", "ms"},
	{"serve.run_capacity_rps", "jobs/s"},
	{"serve.rejected_429", "count"},
	{"serve.retries", "count"},
	{"core.fast_frac", "ratio"},
	{"core.extra_per_kacc", "count"},
	{"tlb.miss_ratio", "ratio"},
	{"cache.llc_miss_ratio", "ratio"},
	{"dram.reads_per_kacc", "count"},
	{"predictor.bypass_accuracy", "ratio"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// env is what every workload receives.
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64
	tr      *tracer // nil for untraced (end-to-end) runs
	bin     string  // directory holding siptd and tracegen
	work    string  // private scratch directory for this run
}

var workloads = map[string]func(env, *runReport) error{
	"sweep": runSweep,
	"mix":   runMix,
	"serve": runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sweep, mix or serve")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "repository root")
	out := fs.String("out", ".bench_build/perfbench", "directory for binaries, scratch state and result files")
	record := fs.String("record-reference", "",
		"instead of benchmarking, compute reference digests for seeds FROM-TO of -workload (sweep or mix) into testdata/reference.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordReference(*name, *record, *root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (sweep, mix, serve)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	work := filepath.Join(*out, "work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	results := filepath.Join(*out, "results")
	if err := errors.Join(os.MkdirAll(work, 0o755), os.MkdirAll(results, 0o755)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := env{ctx: ctx, seed: *seed, seconds: *seconds, bin: filepath.Join(*out, "bin"), work: work}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}
	rep := &runReport{}
	start := time.Now()
	if err := fn(e, rep); err != nil {
		rep.fail("%s: %v", *name, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs\n", *name, *seed, time.Since(start).Seconds())
	if e.tr != nil {
		noteSpans(rep, e.tr)
		if err := e.tr.save(filepath.Join(results, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: saving spans:", err)
		}
	}
	complete(rep, e.tr != nil)
	h := describeHost(*root, *seed)
	if err := rep.write(os.Stdout, results, h, *name, *seed, e.tr != nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 || rep.attempted == 0 {
		return 1
	}
	return 0
}

// complete makes the run report exactly its mode's metric list, in
// catalogue order: absent per-layer metrics read 0 with a base saying
// the workload does not exercise the layer; an absent end-to-end metric
// is a benchmark defect and fails the run.
func complete(rep *runReport, traced bool) {
	have := map[string]metric{}
	for _, m := range rep.metrics {
		have[m.Name] = m
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	var out []metric
	for _, want := range list {
		m, ok := have[want.name]
		switch {
		case ok && m.Unit != want.unit:
			rep.fail("metric %s reported in %s, catalogue says %s", want.name, m.Unit, want.unit)
		case !ok && traced:
			m = metric{Name: want.name, Unit: want.unit, Base: "not exercised by this workload"}
		case !ok:
			rep.fail("end-to-end metric %s was not measured", want.name)
			m = metric{Name: want.name, Unit: want.unit, Base: "missing"}
		}
		out = append(out, m)
	}
	rep.metrics = out
}

// workers is the simulator's worker count, as siptbench defaults it.
func workers() int { return runtime.NumCPU() }
