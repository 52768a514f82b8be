package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/exp"
	"sipt/internal/memo"
	"sipt/internal/replay"
	"sipt/internal/report"
	"sipt/internal/sim"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// sweepApps spans 6-64 MiB footprints against a 1-2 MiB/core LLC and
// includes huge-page-backed (libquantum, graph500) and
// speculation-hostile (mcf, ycsb) apps.
var sweepApps = []string{"libquantum", "calculix", "h264ref", "ycsb", "graph500", "mcf"}

// sweepPoolMB sizes the trace pool so all 24 (app, scenario) traces
// stay resident whichever of its shards their keys hash to: a timed
// pass must never regenerate a trace.
const sweepPoolMB = 1024

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 5

// lanesPerSweepPass is Fig. 18's lane count on sweepApps: 6 apps x 2
// cores x 4 scenarios x (baseline + 4 SIPT geometries).
const lanesPerSweepPass = 6 * 2 * 4 * 5

func sweepRunner(seed int64) *exp.Runner {
	return exp.NewRunner(exp.Options{Seed: seed, Apps: sweepApps, Workers: workers(), TracePoolMB: sweepPoolMB})
}

// fig18Configs is the config batch Fig. 18 runs per (app, core,
// scenario): the baseline L1 and the four SIPT+IDB geometries.
func fig18Configs(coreCfg cpu.Config, sc vm.Scenario) []sim.Config {
	cfgs := []sim.Config{sim.Baseline(coreCfg)}
	for _, g := range sim.SIPTGeometries() {
		cfg := sim.SIPT(coreCfg, g[0], g[1], core.ModeCombined)
		cfg.NoContig = sc == vm.ScenarioNoContig
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// parallel runs fn(0..n-1) on workers() goroutines and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type appScenario struct {
	app string
	sc  vm.Scenario
}

func sweepTraces() []appScenario {
	var out []appScenario
	for _, app := range sweepApps {
		for _, sc := range vm.Scenarios() {
			out = append(out, appScenario{app, sc})
		}
	}
	return out
}

// fillPool materialises every trace Fig. 18 replays into r's pool. The
// runner offers no bare "materialise" call, so each trace is forced by
// its cheapest lane, the in-order baseline (one lane in ten of a pass).
func fillPool(e env, r *exp.Runner) error {
	traces := sweepTraces()
	return parallel(len(traces), func(i int) error {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		t := traces[i]
		_, err := r.RunConfigs(t.app, []sim.Config{sim.Baseline(cpu.InOrder())}, t.sc)
		return err
	})
}

// freshHeap returns the previous set-up's memory to the OS so each
// set-up starts from the same heap.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setUpSweep fills a fresh runner's pool setupRepeats times and returns
// the last runner with the fill times in seconds.
func setUpSweep(e env) (*exp.Runner, []float64, error) {
	var r *exp.Runner
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		r = nil
		freshHeap()
		r = sweepRunner(e.seed)
		t0 := time.Now()
		if err := fillPool(e, r); err != nil {
			return nil, nil, fmt.Errorf("filling the trace pool: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return r, times, nil
}

// pass is one timed experiment pass.
type pass struct {
	dur     time.Duration
	records uint64
	tables  []*report.Table
	sims    uint64     // simulations the pass started
	memo    memo.Stats // the pass's own memo cache
}

// runPass runs experiment id once through a fresh-cache view of r
// (every lane re-simulates; the trace pool is shared).
func runPass(r *exp.Runner, id string, recordsPerSim uint64, wantSims uint64) (pass, error) {
	ex, err := exp.Lookup(id)
	if err != nil {
		return pass{}, err
	}
	v := r.WithFreshCache()
	t0 := time.Now()
	tables, err := ex.Run(v)
	d := time.Since(t0)
	if err != nil {
		return pass{}, err
	}
	if wantSims != 0 && v.Simulations() != wantSims {
		return pass{}, fmt.Errorf("%s pass ran %d simulations, want %d", id, v.Simulations(), wantSims)
	}
	return pass{dur: d, records: recordsPerSim, tables: tables, sims: v.Simulations(), memo: v.CacheStats()}, nil
}

// timedPasses runs passes until e.seconds have elapsed (at least two
// attempts),
// checking each pass's tables against the first and the stored
// reference, and reports sim_rec_per_s, op_p50_ms and peak_rss_mb (the
// median over passes of the process's peak RSS during the pass).
func timedPasses(e env, rep *runReport, workloadName string, one func() (pass, error)) error {
	ref, haveRef := referenceDigest(workloadName, e.seed)
	var ms, rates, rss []float64
	var first string
	var records uint64
	start := time.Now()
	for attempts := 0; attempts < 2 || time.Since(start).Seconds() < e.seconds; attempts++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		rep.attempted++
		if err := resetPeakRSS("self"); err != nil {
			return err
		}
		p, err := one()
		if err != nil {
			rep.fail("pass %d: %v", len(ms)+1, err)
			continue
		}
		peak, err := peakRSSMiB("self")
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		d := digestTables(p.tables)
		switch {
		case first == "":
			first = d
		case d != first:
			rep.fail("pass %d tables differ from pass 1 (%s vs %s)", len(ms)+1, d, first)
		}
		if haveRef && d != ref {
			rep.fail("pass %d tables digest %s, reference for seed %d is %s", len(ms)+1, d, e.seed, ref)
		}
		records = p.records
		ms = append(ms, float64(p.dur)/1e6)
		rates = append(rates, float64(p.records)/p.dur.Seconds())
	}
	if len(ms) == 0 {
		return fmt.Errorf("no pass completed")
	}
	refNote := "no stored reference for this seed; passes agree"
	if haveRef {
		refNote = "matches the stored reference"
	}
	rep.note("tables_digest_prefix", 0, "", "%s: %s", first[:16], refNote)
	rep.add("sim_rec_per_s", median(rates), "records/s", "median of %d passes; %d simulated records per pass", len(rates), records)
	rep.add("op_p50_ms", median(ms), "ms", "median wall time of %d %s passes", len(ms), workloadName)
	rep.add("peak_rss_mb", median(rss), "MiB", "median over %d passes of the benchmark process's VmHWM during the pass", len(rss))
	return nil
}

func runSweep(e env, rep *runReport) error {
	if e.tr != nil {
		return traceSweep(e, rep)
	}
	r, setup, err := setUpSweep(e)
	if err != nil {
		return err
	}
	rep.add("setup_s", median(setup), "s", "median of %d trace-pool fills (%d traces x %d records)",
		len(setup), len(sweepTraces()), exp.DefaultRecords)
	misses := r.TraceStats().Misses
	err = timedPasses(e, rep, "sweep", func() (pass, error) {
		return runPass(r, "fig18", lanesPerSweepPass*exp.DefaultRecords, lanesPerSweepPass)
	})
	if err != nil {
		return err
	}
	if n := r.TraceStats().Misses - misses; n != 0 {
		rep.fail("the trace pool regenerated %d traces during the timed passes", n)
	}
	return nil
}

// traceSweep repeats the sweep's work under the tracer: a profiled
// fill and Fig. 18 pass, an unprofiled pass of the same work for the
// overhead figure, then a drill-down calling sim.Materialize and
// sim.RunConfigs directly for every batch Fig. 18 runs.
func traceSweep(e env, rep *runReport) error {
	freshHeap()
	r := sweepRunner(e.seed)
	w, err := startCPU(e.work)
	if err != nil {
		return err
	}
	fill := e.tr.begin("setup.fill")
	err = fillPool(e, r)
	e.tr.end(fill, int64(len(sweepTraces()))*exp.DefaultRecords)
	if err != nil {
		w.stop() //nolint:errcheck // the fill error is the one to report
		return err
	}
	ts0 := r.TraceStats()
	sp := e.tr.begin("exp.Experiment.Run")
	traced, err := runPass(r, "fig18", lanesPerSweepPass*exp.DefaultRecords, lanesPerSweepPass)
	e.tr.end(sp, int64(traced.records))
	prof, perr := w.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	ts1 := r.TraceStats()
	addProfile(rep, prof, "profiled trace-pool fill + one Fig. 18 pass")
	hits, misses := ts1.Hits-ts0.Hits, ts1.Misses-ts0.Misses
	rep.add("replay.pool_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio",
		"%d hits of %d pool lookups in the profiled pass", hits, hits+misses)

	plain, err := runPass(r, "fig18", lanesPerSweepPass*exp.DefaultRecords, lanesPerSweepPass)
	if err != nil {
		return err
	}
	rep.attempted += 2
	checkPassTables(e, rep, "sweep", traced.tables, plain.tables)
	rep.add("bench.trace_overhead_pct", 100*(traced.dur.Seconds()/plain.dur.Seconds()-1), "%",
		"profiled Fig. 18 pass %.0f ms vs unprofiled %.0f ms", float64(traced.dur)/1e6, float64(plain.dur)/1e6)

	cs := traced.memo
	rep.add("exp.memo_hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "ratio",
		"%d hits of %d memo lookups in one fresh-cache Fig. 18 pass", cs.Hits, cs.Hits+cs.Misses)
	rep.add("exp.simulations", float64(traced.sims), "count", "simulations started by one Fig. 18 pass")

	return sweepDrillDown(e, rep)
}

// sweepDrillDown times sim.Materialize and sim.RunConfigs per batch and
// collects the modelled statistics the batches return.
func sweepDrillDown(e env, rep *runReport) error {
	traces := sweepTraces()
	bufs := make([]*replay.Buffer, len(traces))
	err := parallel(len(traces), func(i int) error {
		prof, err := workload.Lookup(traces[i].app)
		if err != nil {
			return err
		}
		sp := e.tr.begin("sim.Materialize")
		buf, err := sim.Materialize(prof, traces[i].sc, e.seed, exp.DefaultRecords)
		e.tr.end(sp, exp.DefaultRecords)
		bufs[i] = buf
		return err
	})
	if err != nil {
		return err
	}
	type batch struct {
		t    int
		cfgs []sim.Config
	}
	var batches []batch
	for i, t := range traces {
		for _, c := range []cpu.Config{cpu.OOO(), cpu.InOrder()} {
			batches = append(batches, batch{i, fig18Configs(c, t.sc)})
		}
	}
	results := make([][]sim.Stats, len(batches))
	m0, b0 := allocCounters()
	err = parallel(len(batches), func(i int) error {
		b := batches[i]
		sp := e.tr.begin("sim.RunConfigs")
		sts, err := sim.RunConfigs(e.ctx, traces[b.t].app, bufs[b.t], b.cfgs, e.seed)
		e.tr.end(sp, int64(len(b.cfgs))*exp.DefaultRecords)
		results[i] = sts
		return err
	})
	m1, b1 := allocCounters()
	if err != nil {
		return err
	}
	rep.attempted += int64(len(traces) + len(batches))
	sum := e.tr.summary()
	mat, rc := sum["sim.Materialize"], sum["sim.RunConfigs"]
	rep.add("workload.gen_ns_per_rec", ratio(float64(mat.Total), float64(mat.Units)), "ns/rec",
		"%d sim.Materialize calls, %d records", mat.Count, mat.Units)
	rep.add("sim.kernel_ns_per_lane_rec", ratio(float64(rc.Total), float64(rc.Units)), "ns/rec",
		"%d sim.RunConfigs calls, %d lane-records", rc.Count, rc.Units)
	krec := float64(rc.Units) / 1000
	rep.add("sim.allocs_per_krec", ratio(float64(m1-m0), krec), "count",
		"%d allocations over %d lane-records of sim.RunConfigs", m1-m0, rc.Units)
	rep.add("sim.bytes_per_rec", ratio(float64(b1-b0), float64(rc.Units)), "B",
		"%d bytes allocated over %d lane-records of sim.RunConfigs", b1-b0, rc.Units)
	var all []sim.Stats
	for _, sts := range results {
		all = append(all, sts...)
	}
	addModelled(rep, all, "sim.RunConfigs lanes")
	return nil
}

// addModelled reports statistics of the modelled design, summed over
// the simulations the traced run got back. They depend only on the
// inputs, so any change meant only to speed the simulator up must leave
// them identical.
func addModelled(rep *runReport, sts []sim.Stats, what string) {
	var acc, fast, extra, lookups, walks, llc, dram, preds, correct uint64
	for _, s := range sts {
		acc += s.L1.Accesses
		fast += s.L1.Fast
		extra += s.L1.Extra
		lookups += s.TLB.Lookups
		walks += s.TLB.Walks
		llc += s.Path.LLCAccesses
		dram += s.Path.DRAMReads
		preds += s.Bypass.Predictions
		correct += s.Bypass.CorrectSpeculate + s.Bypass.CorrectBypass
	}
	base := fmt.Sprintf("%d %s", len(sts), what)
	rep.add("core.fast_frac", ratio(float64(fast), float64(acc)), "ratio", "%d fast of %d L1 accesses; %s", fast, acc, base)
	rep.add("core.extra_per_kacc", 1000*ratio(float64(extra), float64(acc)), "count", "%d extra L1 reads per %d accesses; %s", extra, acc, base)
	rep.add("tlb.miss_ratio", ratio(float64(walks), float64(lookups)), "ratio", "%d walks of %d TLB lookups; %s", walks, lookups, base)
	rep.add("cache.llc_miss_ratio", ratio(float64(dram), float64(llc)), "ratio", "%d DRAM reads of %d LLC accesses; %s", dram, llc, base)
	rep.add("dram.reads_per_kacc", 1000*ratio(float64(dram), float64(acc)), "count", "%d DRAM reads per %d L1 accesses; %s", dram, acc, base)
	rep.add("predictor.bypass_accuracy", ratio(float64(correct), float64(preds)), "ratio", "%d correct of %d bypass predictions; %s", correct, preds, base)
}
