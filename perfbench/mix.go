package main

import (
	"fmt"
	"time"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/exp"
	"sipt/internal/sim"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// mixRecords is the mix workload's records per core: Fig. 15 at the
// default length takes a minute, this keeps one pass near two seconds
// on two cores so a run holds several.
const mixRecords = 20_000

// mixSimRecords is one Fig. 15 pass's simulated records: 11 mixes x 5
// configs x 4 cores x mixRecords (nominal trace lengths; recycled
// records that keep finished cores contending are not counted).
func mixSimRecords(records uint64) uint64 { return uint64(len(workload.Mixes())) * 5 * 4 * records }

// mixTracedPasses is how many Fig. 15 passes the traced run profiles
// (and repeats unprofiled): one pass gives only a few hundred samples.
const mixTracedPasses = 3

func repeatPasses(one func() (pass, error), n int) ([]pass, error) {
	var out []pass
	for i := 0; i < n; i++ {
		p, err := one()
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func totalDur(ps []pass) time.Duration {
	var d time.Duration
	for _, p := range ps {
		d += p.dur
	}
	return d
}

func mixRunner(seed int64, records uint64) *exp.Runner {
	return exp.NewRunner(exp.Options{Seed: seed, Records: records, Workers: workers()})
}

// fig15Configs is the config list Fig. 15 runs per mix: the quad-core
// baseline and the four SIPT+IDB geometries.
func fig15Configs() []sim.Config {
	base := sim.Baseline(cpu.OOO())
	base.Cores = 4
	cfgs := []sim.Config{base}
	for _, g := range sim.SIPTGeometries() {
		cfg := sim.SIPT(cpu.OOO(), g[0], g[1], core.ModeCombined)
		cfg.Cores = 4
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// setUpMix is the mix workload's set-up: warm-up passes of Fig. 15 at a
// quarter of the timed length (heap growth, first-touch page faults),
// repeated setupRepeats times.
func setUpMix(e env) ([]float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		freshHeap()
		t0 := time.Now()
		if _, err := runPass(mixRunner(e.seed, mixRecords/4), "fig15", 0, 0); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

func runMix(e env, rep *runReport) error {
	if e.tr != nil {
		return traceMix(e, rep)
	}
	setup, err := setUpMix(e)
	if err != nil {
		return err
	}
	rep.add("setup_s", median(setup), "s", "median of %d warm-up Fig. 15 passes at %d records/core",
		len(setup), mixRecords/4)
	r := mixRunner(e.seed, mixRecords)
	err = timedPasses(e, rep, "mix", func() (pass, error) {
		return runPass(r, "fig15", mixSimRecords(mixRecords), 0)
	})
	return err
}

// traceMix repeats the mix workload under the tracer: a profiled and an
// unprofiled Fig. 15 pass, then a drill-down calling sim.RunMix for
// every (mix, config) Fig. 15 runs and sim.Materialize for each mix app.
func traceMix(e env, rep *runReport) error {
	freshHeap()
	r := mixRunner(e.seed, mixRecords)
	fig15 := func() (pass, error) { return runPass(r, "fig15", mixSimRecords(mixRecords), 0) }
	w, err := startCPU(e.work)
	if err != nil {
		return err
	}
	sp := e.tr.begin("exp.Experiment.Run")
	traced, err := repeatPasses(fig15, mixTracedPasses)
	e.tr.end(sp, int64(mixSimRecords(mixRecords))*mixTracedPasses)
	prof, perr := w.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	addProfile(rep, prof, fmt.Sprintf("%d profiled Fig. 15 passes", mixTracedPasses))
	plain, err := repeatPasses(fig15, mixTracedPasses)
	if err != nil {
		return err
	}
	rep.attempted += 2 * mixTracedPasses
	for _, p := range append(traced[1:], plain...) {
		checkPassTables(e, rep, "mix", traced[0].tables, p.tables)
	}
	tracedDur, plainDur := totalDur(traced), totalDur(plain)
	rep.add("bench.trace_overhead_pct", 100*(tracedDur.Seconds()/plainDur.Seconds()-1), "%",
		"%d profiled Fig. 15 passes %.0f ms vs %d unprofiled %.0f ms",
		mixTracedPasses, float64(tracedDur)/1e6, mixTracedPasses, float64(plainDur)/1e6)
	rep.add("exp.simulations", float64(traced[0].sims), "count",
		"memoised simulations started by one Fig. 15 pass (mixes bypass the memo cache)")

	type run struct {
		mix workload.Mix
		cfg sim.Config
	}
	var runs []run
	for _, m := range workload.Mixes() {
		for _, c := range fig15Configs() {
			runs = append(runs, run{m, c})
		}
	}
	results := make([]sim.MixStats, len(runs))
	m0, b0 := allocCounters()
	err = parallel(len(runs), func(i int) error {
		sp := e.tr.begin("sim.RunMix")
		ms, err := sim.RunMix(e.ctx, runs[i].mix, runs[i].cfg, vm.ScenarioNormal, e.seed, mixRecords)
		e.tr.end(sp, 4*mixRecords)
		results[i] = ms
		return err
	})
	m1, b1 := allocCounters()
	if err != nil {
		return err
	}
	rep.attempted += int64(len(runs))
	rm := e.tr.summary()["sim.RunMix"]
	rep.add("sim.mix_ns_per_core_rec", ratio(float64(rm.Total), float64(rm.Units)), "ns/rec",
		"%d sim.RunMix calls, %d core-records", rm.Count, rm.Units)
	rep.add("sim.allocs_per_krec", ratio(float64(m1-m0), float64(rm.Units)/1000), "count",
		"%d allocations over %d core-records of sim.RunMix", m1-m0, rm.Units)
	rep.add("sim.bytes_per_rec", ratio(float64(b1-b0), float64(rm.Units)), "B",
		"%d bytes allocated over %d core-records of sim.RunMix", b1-b0, rm.Units)
	var all []sim.Stats
	for _, ms := range results {
		all = append(all, ms.PerCore[:]...)
	}
	addModelled(rep, all, "per-core results of sim.RunMix")

	// Generation cost of the mixes' apps, one materialisation each.
	seen := map[string]bool{}
	var apps []string
	for _, m := range workload.Mixes() {
		for _, a := range m.Apps {
			if !seen[a] {
				seen[a] = true
				apps = append(apps, a)
			}
		}
	}
	err = parallel(len(apps), func(i int) error {
		prof, err := workload.Lookup(apps[i])
		if err != nil {
			return err
		}
		sp := e.tr.begin("sim.Materialize")
		_, err = sim.Materialize(prof, vm.ScenarioNormal, e.seed, mixRecords)
		e.tr.end(sp, mixRecords)
		return err
	})
	if err != nil {
		return err
	}
	rep.attempted += int64(len(apps))
	mat := e.tr.summary()["sim.Materialize"]
	rep.add("workload.gen_ns_per_rec", ratio(float64(mat.Total), float64(mat.Units)), "ns/rec",
		"%d sim.Materialize calls over the mixes' apps, %d records", mat.Count, mat.Units)
	return nil
}
