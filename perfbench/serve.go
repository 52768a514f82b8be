package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// serveRecords is every serve request's trace length (siptd
	// -records): small runs on the cpu.Core path.
	serveRecords = 20_000
	// serveRate is the open loop's arrival rate in operations per
	// second: the lowest round rate at which a 30 s run's 21 s open
	// loop holds the 1000+ runs and admissions a p99 needs (three of
	// the four equal kinds are runs, three are admissions). It keeps
	// siptd and this client well below two cores, so a host running
	// much slower for a while still keeps up.
	serveRate = 70.0
	// openShare is the share of -seconds spent in the open loop; the
	// rest is the closed loop.
	openShare = 0.7
	// closedClients is the closed loop's client count (one per core).
	closedClients = 2
	// setupRestarts is how many times siptd is restarted over the
	// prepared directories; setup_s is the median exec-to-ready time.
	setupRestarts = 9
	// tracePoolMB is siptd's trace pool budget. Every fresh run adds a
	// trace; a small pool reaches its budget early in the phase, so the
	// daemon's peak RSS reflects its steady state rather than how far
	// the run got.
	tracePoolMB = 64
)

// serveApps are the apps serve requests draw from. The hot set holds
// one request per app.
var serveApps = []string{"calculix", "h264ref", "mcf", "libquantum", "ycsb", "gcc", "astar", "hmmer"}

// Seed classes keep each request kind's simulation seeds apart.
const (
	classFresh = iota + 1
	classHot
	classSweep
	classUpload
	classClosed
)

// simSeed derives a distinct, nonzero simulation seed for the k-th
// input of a class from the benchmark seed (siptd reads seed 0 as "use
// the default").
func simSeed(benchSeed int64, class, k int) int64 {
	return (benchSeed%1_000_000)*10_000_000 + int64(class)*1_000_000 + int64(k) + 1
}

// serveInputs is everything a serve run sends, made from the seed.
type serveInputs struct {
	plan    []plannedOp
	fresh   [][]byte // fresh run bodies, in fresh-op order
	hot     [][]byte
	sweeps  [][]byte
	uploads [][]byte // .sipt file contents, in upload-op order
}

func runBody(app string, seed int64) []byte {
	b, _ := json.Marshal(map[string]any{"app": app, "seed": seed}) // a string and an int always encode
	return b
}

// balancedApps returns n apps, each of serveApps equally often (up to
// rounding), in a seeded order: every seed sends the same app mix, so
// a latency median never shifts between apps' cost levels by seed.
func balancedApps(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = serveApps[i%len(serveApps)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func makeServeInputs(e env, openDur time.Duration) (*serveInputs, error) {
	n := int(serveRate * openDur.Seconds())
	in := &serveInputs{plan: schedule(e.seed, n, len(serveApps), openDur)}
	counts := kindCounts(n)
	rng := rand.New(rand.NewSource(e.seed ^ 0x5e7e))
	for k, app := range balancedApps(rng, counts[opFresh]) {
		in.fresh = append(in.fresh, runBody(app, simSeed(e.seed, classFresh, k)))
	}
	for i, app := range serveApps {
		in.hot = append(in.hot, runBody(app, simSeed(e.seed, classHot, i)))
	}
	for j, app := range balancedApps(rng, counts[opSweep]) {
		body, _ := json.Marshal(map[string]any{ // strings and ints always encode
			"experiment": "fig13", "apps": []string{app},
			"records": serveRecords, "seed": simSeed(e.seed, classSweep, j),
		})
		in.sweeps = append(in.sweeps, body)
	}
	files, err := makeUploads(e, rng, counts[opUpload])
	if err != nil {
		return nil, err
	}
	in.uploads = files
	return in, nil
}

// makeUploads writes n distinct .sipt files with tracegen -o, two at a
// time, and returns their contents.
func makeUploads(e env, rng *rand.Rand, n int) ([][]byte, error) {
	dir := filepath.Join(e.work, "uploads")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	apps := balancedApps(rng, n)
	out := make([][]byte, n)
	err := parallel(n, func(u int) error {
		path := filepath.Join(dir, fmt.Sprintf("u%04d.sipt", u))
		cmd := exec.Command(filepath.Join(e.bin, "tracegen"), "-app", apps[u],
			"-seed", strconv.FormatInt(simSeed(e.seed, classUpload, u), 10),
			"-records", strconv.Itoa(serveRecords), "-o", path)
		if msg, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("tracegen: %v: %s", err, msg)
		}
		b, err := os.ReadFile(path)
		out[u] = b
		return err
	})
	return out, err
}

// opResult is one operation's outcome. All latencies run from the
// operation's due time, so a stall also charges the requests it delays.
type opResult struct {
	op       plannedOp
	body     []byte        // the job request (for uploads, the run by digest)
	path     string        // /v1/run or /v1/sweep
	late     time.Duration // how late the generator dispatched it
	admit    time.Duration // due -> 202
	upload   time.Duration // due -> 201 (uploads only)
	done     time.Duration // due -> a poll sees done
	serverMS float64       // the job's elapsed_ms
	finished time.Duration // closed loop only: completion, from the phase start
	tables   json.RawMessage
	err      error
}

// execute runs one operation against siptd.
func execute(c *client, in *serveInputs, op plannedOp, due time.Time) opResult {
	r := opResult{op: op, path: "/v1/run"}
	switch op.Kind {
	case opFresh:
		r.body = in.fresh[op.Index]
	case opHot:
		r.body = in.hot[op.Index]
	case opSweep:
		r.body, r.path = in.sweeps[op.Index], "/v1/sweep"
	case opUpload:
		code, out, err := c.do("POST", "/v1/traces", "/v1/traces", in.uploads[op.Index])
		r.upload = time.Since(due)
		if err == nil && code != 201 {
			err = fmt.Errorf("POST /v1/traces: status %d (want 201 for a new trace): %s", code, out)
		}
		if err != nil {
			r.err = err
			return r
		}
		var info struct {
			Digest string `json:"digest"`
		}
		if r.err = json.Unmarshal(out, &info); r.err != nil {
			return r
		}
		r.body, _ = json.Marshal(map[string]string{"trace": info.Digest}) // strings always encode
	}
	id, err := c.submit(r.path, r.body)
	r.admit = time.Since(due)
	if err != nil {
		r.err = err
		return r
	}
	v, err := c.wait(id)
	r.done = time.Since(due)
	r.serverMS, r.tables, r.err = v.ElapsedMS, v.Tables, err
	return r
}

// openLoop dispatches the plan on schedule, each operation on its own
// goroutine, and samples the backlog (operations sent but not finished)
// every 100 ms.
func openLoop(e env, c *client, in *serveInputs) ([]opResult, []int) {
	results := make([]opResult, len(in.plan))
	var outstanding atomic.Int64
	var backlog []int
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				backlog = append(backlog, int(outstanding.Load()))
			case <-stopSampling:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	start := time.Now().Add(50 * time.Millisecond)
	for i, op := range in.plan {
		due := start.Add(op.Due)
		time.Sleep(time.Until(due))
		if e.ctx.Err() != nil {
			break
		}
		late := time.Since(due)
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, op plannedOp, due time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			sp := e.tr.begin("op " + op.Kind.String())
			results[i] = execute(c, in, op, due)
			e.tr.end(sp, 1)
			results[i].late = late
		}(i, op, due)
	}
	close(stopSampling)
	sampler.Wait()
	wg.Wait()
	return results, backlog
}

// closedLoop runs closedClients clients sending back-to-back fresh runs
// for d and returns their results.
func closedLoop(e env, c *client, d time.Duration) []opResult {
	var mu sync.Mutex
	var results []opResult
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < closedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && e.ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				app := serveApps[k%len(serveApps)]
				op := plannedOp{Kind: opFresh, Index: k}
				r := opResult{op: op, path: "/v1/run", body: runBody(app, simSeed(e.seed, classClosed, k))}
				due := time.Now()
				sp := e.tr.begin("op closed")
				id, err := c.submit(r.path, r.body)
				r.admit = time.Since(due)
				if err == nil {
					var v jobView
					v, err = c.wait(id)
					r.serverMS, r.tables = v.ElapsedMS, v.Tables
				}
				r.done, r.err, r.finished = time.Since(due), err, time.Since(start)
				e.tr.end(sp, 1)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results
}

// capacity is the closed loop's completion rate: the median, over the
// phase's whole-second windows, of fresh runs completed per second, so
// a stall of the shared host moves one window rather than the figure.
func capacity(closed []opResult, d time.Duration) (perSec float64, windows int) {
	windows = max(1, int(d/time.Second))
	width := d / time.Duration(windows)
	counts := make([]float64, windows)
	for _, r := range closed {
		if w := int(r.finished / width); r.err == nil && w < windows {
			counts[w]++
		}
	}
	return median(counts) / width.Seconds(), windows
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// siptdArgs is the daemon's command line over the run's directories.
func siptdArgs(work string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(workers()),
		"-records", strconv.Itoa(serveRecords),
		"-seed", "1",
		"-trace-pool-mb", strconv.Itoa(tracePoolMB),
		"-store-dir", filepath.Join(work, "store"),
		"-journal-dir", filepath.Join(work, "journal"),
	}
}

// prewarm runs the hot set and every sweep the plan will request on a
// cold daemon, so that after the restart they are store hits.
func prewarm(c *client, in *serveInputs) error {
	bodies := append(append([][]byte{}, in.hot...), in.sweeps...)
	return parallel(len(bodies), func(i int) error {
		path := "/v1/run"
		if i >= len(in.hot) {
			path = "/v1/sweep"
		}
		id, err := c.submit(path, bodies[i])
		if err != nil {
			return err
		}
		_, err = c.wait(id)
		return err
	})
}

func runServe(e env, rep *runReport) error {
	openDur := time.Duration(openShare * e.seconds * float64(time.Second))
	closedDur := time.Duration((1 - openShare) * e.seconds * float64(time.Second))
	prep := time.Now()
	in, err := makeServeInputs(e, openDur)
	if err != nil {
		return fmt.Errorf("preparing inputs: %w", err)
	}
	bin := filepath.Join(e.bin, "siptd")
	args := siptdArgs(e.work)

	// Preparation: a cold daemon computes the hot set and the sweeps.
	d, _, err := startDaemon(e.ctx, bin, args)
	if err != nil {
		return err
	}
	c := newClient(d.addr, nil)
	err = prewarm(c, in)
	c.close()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("pre-warming: %w", err)
	}
	rep.note("bench.prepare_s", time.Since(prep).Seconds(), "s", "%d upload files and %d hot-set runs + %d sweeps on a cold siptd",
		len(in.uploads), len(in.hot), len(in.sweeps))

	// Set-up: restart over the same directories (journal replay, store
	// open, trace-index rebuild); the last instance serves the phases.
	var setup []float64
	for i := 0; i < setupRestarts; i++ {
		var took time.Duration
		d, took, err = startDaemon(e.ctx, bin, args)
		if err != nil {
			return err
		}
		setup = append(setup, took.Seconds())
		if i < setupRestarts-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	running := true
	defer func() {
		if running {
			d.kill()
		}
	}()
	if err := resetPeakRSS(d.pid()); err != nil {
		return err
	}

	c = newClient(d.addr, e.tr)
	before, err := c.scrape()
	if err != nil {
		return err
	}
	open, backlog := openLoop(e, c, in)
	closed := closedLoop(e, c, closedDur)
	after, err := c.scrape()
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB(d.pid())
	if err != nil {
		return fmt.Errorf("reading siptd peak RSS: %w", err)
	}
	c.close()
	running = false
	if err := d.stop(); err != nil {
		rep.fail("stopping siptd: %v", err)
	}

	rep.attempted += int64(len(open) + len(closed))
	for _, r := range append(append([]opResult{}, open...), closed...) {
		if r.err != nil {
			rep.fail("%s op %d: %v", r.op.Kind, r.op.Index, r.err)
		}
	}
	checkBacklog(rep, backlog)

	endToEnd, layer := rep.note, rep.note
	if e.tr == nil {
		endToEnd = rep.add
	} else {
		layer = rep.add
	}
	fresh := pick(open, func(r opResult) (float64, bool) { return durMS(r.done), r.op.Kind == opFresh })
	closedLat := pick(closed, func(r opResult) (float64, bool) { return durMS(r.done), true })
	rate, windows := capacity(closed, closedDur)
	endToEnd("setup_s", median(setup), "s", "median of %d siptd restarts, exec to first /readyz 200", len(setup))
	endToEnd("sim_rec_per_s", rate*serveRecords, "records/s",
		"median of %d one-second windows of %d closed-loop clients' completed fresh runs, x %d records (%d runs)",
		windows, closedClients, serveRecords, len(closed))
	// The closed loop's latency, not the open loop's: with at most two
	// jobs in the daemon it queues behind nothing, so a host that slows
	// down for a while moves it by its own factor rather than amplified
	// by the open loop's backlog.
	endToEnd("op_p50_ms", median(closedLat), "ms", "median of n=%d closed-loop fresh runs, send to done (polled every %v)", len(closedLat), pollEvery)
	rep.note("serve.open_fresh_p50_ms", median(fresh), "ms", "median of n=%d open-loop fresh runs, due to done", len(fresh))
	endToEnd("peak_rss_mb", rss, "MiB", "VmHWM of the siptd serving the measured phases")

	addServeLayers(layer, open, closed, rate, windows, before, after)
	return checkServeResults(e, rep, in, open, closed)
}

// pick returns f(r) for every successful result it selects.
func pick(rs []opResult, f func(opResult) (float64, bool)) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := f(r); ok && r.err == nil {
			out = append(out, v)
		}
	}
	return out
}

// checkBacklog fails the run when the open loop's backlog grew through
// the phase: the last quarter's mean above twice the first quarter's
// (plus slack for a few in flight) means the daemon fell behind the
// offered rate and latencies measure a queue, not the service.
func checkBacklog(rep *runReport, samples []int) {
	q := len(samples) / 4
	if q == 0 {
		return
	}
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	first, last := mean(samples[:q]), mean(samples[len(samples)-q:])
	rep.note("bench.backlog_first_last", last, "ops", "mean outstanding ops: first quarter %.2f, last quarter %.2f (%d samples)", first, last, len(samples))
	if last > 2*first+4 {
		rep.fail("open-loop backlog grew from %.1f to %.1f outstanding operations", first, last)
	}
}

type putFunc func(name string, value float64, unit, base string, args ...any)

// putPercentile reports percentile p of xs, or 0 with the reason when
// xs has fewer than minBeyond samples beyond it.
func putPercentile(put putFunc, name string, xs []float64, p float64, what string) {
	n := len(xs)
	if !supported(p, n) {
		tail, _ := tailPercentile(n)
		put(name, 0, "ms", "n=%d %s supports no p%g (highest supported: p%g)", n, what, p, tail)
		return
	}
	put(name, percentile(xs, p), "ms", "p%g of n=%d %s", p, n, what)
}

// addServeLayers reports the serve workload's per-layer figures: client
// latencies by request kind and deltas of siptd's own counters over the
// measured phases.
func addServeLayers(put putFunc, open, closed []opResult, rate float64, windows int,
	before, after map[string]float64) {

	kind := func(ks ...opKind) func(opResult) bool {
		return func(r opResult) bool {
			for _, k := range ks {
				if r.op.Kind == k {
					return true
				}
			}
			return false
		}
	}
	admitted := kind(opFresh, opHot, opSweep)
	runs := kind(opFresh, opHot, opUpload)
	admit := pick(open, func(r opResult) (float64, bool) { return durMS(r.admit), admitted(r) })
	jobs := pick(open, func(r opResult) (float64, bool) { return durMS(r.done), runs(r) })
	queue := pick(open, func(r opResult) (float64, bool) {
		return durMS(r.done) - durMS(r.admit) - r.serverMS, runs(r)
	})
	elapsed := pick(open, func(r opResult) (float64, bool) { return r.serverMS, r.op.Kind == opFresh })
	sweeps := pick(open, func(r opResult) (float64, bool) { return durMS(r.done), r.op.Kind == opSweep })
	uploads := pick(open, func(r opResult) (float64, bool) { return durMS(r.upload), r.op.Kind == opUpload })
	var late []float64
	for _, r := range open {
		late = append(late, durMS(r.late))
	}
	putPercentile(put, "serve.admit_p50_ms", admit, 50, "run/sweep admissions, due to 202")
	putPercentile(put, "serve.admit_p99_ms", admit, 99, "run/sweep admissions, due to 202")
	putPercentile(put, "serve.job_p50_ms", jobs, 50, "interactive runs, due to done")
	putPercentile(put, "serve.job_p99_ms", jobs, 99, "interactive runs, due to done")
	putPercentile(put, "serve.warm_sweep_ms", sweeps, 50, "store-served sweeps, due to done")
	putPercentile(put, "serve.upload_p50_ms", uploads, 50, "trace uploads, due to 201")
	putPercentile(put, "serve.run_elapsed_p50_ms", elapsed, 50, "fresh runs' server elapsed_ms")
	putPercentile(put, "sched.queue_wait_p50_ms", queue, 50, "runs: job latency - admission - server elapsed")
	putPercentile(put, "sched.queue_wait_p99_ms", queue, 99, "runs: job latency - admission - server elapsed")
	putPercentile(put, "bench.gen_late_p99_ms", late, 99, "open-loop dispatches, behind their due time")
	put("serve.run_capacity_rps", rate, "jobs/s",
		"median of %d one-second windows of %d closed-loop clients' completed fresh runs (%d runs)", windows, closedClients, len(closed))

	delta := func(name string) float64 { return after[name] - before[name] }
	hitRatio := func(metric, hits, misses string) {
		h, m := delta(hits), delta(misses)
		put(metric, ratio(h, h+m), "ratio", "%.0f hits of %.0f lookups (siptd %s/%s deltas)", h, h+m, hits, misses)
	}
	hitRatio("exp.memo_hit_ratio", "serve_result_cache_hits", "serve_result_cache_misses")
	hitRatio("store.hit_ratio", "store_hits_total", "store_misses_total")
	hitRatio("replay.pool_hit_ratio", "serve_trace_pool_hits", "serve_trace_pool_misses")
	jobsCreated := delta("serve_jobs_created_total")
	put("exp.simulations", delta("serve_simulations_total"), "count", "siptd serve_simulations_total delta over %.0f jobs", jobsCreated)
	put("journal.appends_per_job", ratio(delta("journal_appends_total"), jobsCreated), "count",
		"%.0f journal appends over %.0f admitted jobs", delta("journal_appends_total"), jobsCreated)
	put("journal.syncs_per_job", ratio(delta("journal_syncs_total"), jobsCreated), "count",
		"%.0f journal fsyncs over %.0f admitted jobs", delta("journal_syncs_total"), jobsCreated)
	put("serve.rejected_429", delta("serve_jobs_rejected_total"), "count", "siptd serve_jobs_rejected_total delta over %d operations", len(open)+len(closed))
	put("serve.retries", delta("serve_job_retries_total"), "count", "siptd serve_job_retries_total delta over %.0f jobs", jobsCreated)
}
