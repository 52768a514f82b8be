package exp

import (
	"errors"
	"fmt"

	"sipt/internal/fault"
	"sipt/internal/memo"
	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// evictStorm is the trace pool's injection point, named
// replay.pool.evict so existing fault specs keep working: armed (e.g.
// "replay.pool.evict:1/64"), a seeded fraction of trace lookups are
// declined as if the buffer had been evicted under pressure, and the
// run streams live instead of failing.
var evictStorm = fault.NewPoint("replay.pool.evict")

// errPoolDeclined means the trace pool declined a trace: it is longer
// than a shard can retain, or an eviction storm hit the lookup. The run
// streams from a live generator instead (counted — see noteDegraded).
var errPoolDeclined = errors.New("exp: trace pool declined the trace")

// traceKey identifies one materialised trace: the tuple that fully
// determines a synthetic record stream. Distinct seeds, lengths, or
// scenarios never alias.
type traceKey struct {
	App      string
	Scenario vm.Scenario
	Seed     int64
	Records  uint64
}

// poolKey is the trace key for one (app, scenario) under the runner's
// current options. Records and seed are in the key, so derived views
// (WithOptions) sharing one pool never alias.
func (r *Runner) poolKey(app string, sc vm.Scenario) traceKey {
	return traceKey{App: app, Scenario: sc, Seed: r.opts.Seed, Records: r.opts.records()}
}

// materialize builds k's buffer on a trace-pool miss: revived from the
// store when one is configured, else generated and persisted for the
// next process.
func (sh *runnerShared) materialize(k traceKey) (*replay.Buffer, error) {
	if sh.store != nil {
		if buf, ok := loadStoredTrace(sh.store, k); ok {
			return buf, nil
		}
	}
	prof, err := workload.Lookup(k.App)
	if err != nil {
		return nil, err
	}
	buf, err := sim.Materialize(prof, k.Scenario, k.Seed, k.Records)
	if err == nil && sh.store != nil {
		saveStoredTrace(sh.store, k, buf)
	}
	return buf, err
}

// buffer returns the shared materialised trace for (app, sc), building
// it on first use. errPoolDeclined means "stream live instead"; any
// other error is a real failure.
func (r *Runner) buffer(app string, sc vm.Scenario) (*replay.Buffer, error) {
	// A trace the pool cannot retain would be rebuilt on every request —
	// strictly worse than live generation (which also honours the run's
	// context mid-trace, where materialisation does not).
	if r.oversize() || evictStorm.Fire() {
		return nil, errPoolDeclined
	}
	k := r.poolKey(app, sc)
	return r.sh.traces.Do(fmt.Sprintf("%+v", k), func() (*replay.Buffer, error) {
		return r.sh.materialize(k)
	})
}

// oversize reports whether the runner's traces are too long for a pool
// shard to retain.
func (r *Runner) oversize() bool {
	return r.opts.records() > uint64(r.sh.maxTraceBytes)/replay.BytesPerRecord
}

// noteDegraded counts one run (or raw-trace drain) streamed live
// because the pool declined its trace. The daemon exposes the count as
// serve_degraded_runs_total, and the byte-budget share of it in
// replay_pool_oversize_total.
func (r *Runner) noteDegraded() {
	r.sh.degraded.Add(1)
	if r.oversize() {
		r.sh.oversize.Add(1)
	}
}

// traceReader returns (app, sc)'s record stream under the runner's
// options: a cursor over the pooled buffer when the pool holds it, else
// a fresh live generator producing the identical records. Figures that
// analyse raw traces (Fig. 5, the predictor ablations) drain this
// instead of constructing generators by hand, so they too share one
// materialisation per app.
func (r *Runner) traceReader(app string, sc vm.Scenario) (trace.Reader, error) {
	buf, err := r.buffer(app, sc)
	if err == nil {
		return buf.Cursor(), nil
	}
	if !errors.Is(err, errPoolDeclined) {
		return nil, err
	}
	r.noteDegraded()
	prof, err := workload.Lookup(app)
	if err != nil {
		return nil, err
	}
	sys := sim.NewSystem(sc, r.opts.Seed, prof)
	return workload.NewGenerator(prof, sys, r.opts.Seed, r.opts.records())
}

// runLive is the pre-replay Run body: generate and simulate in one
// pass.
func (r *Runner) runLive(app string, cfg sim.Config, sc vm.Scenario) (sim.Stats, error) {
	prof, err := workload.Lookup(app)
	if err != nil {
		return sim.Stats{}, err
	}
	st, err := sim.RunApp(r.ctx, prof, cfg, sc, r.opts.Seed, r.opts.records())
	if err != nil {
		return sim.Stats{}, fmt.Errorf("exp: %s on %s/%s: %w", app, cfg.Label(), sc, err)
	}
	return st, nil
}

// runUncached executes one simulation, preferring replay from the
// shared trace pool (generation paid once per app, not once per config)
// and falling back to a live generator when the pool declines the
// trace. Replay reproduces the live run bit-for-bit (see
// internal/sim TestRunBufferMatchesRunApp), so the two paths are
// interchangeable.
func (r *Runner) runUncached(app string, cfg sim.Config, sc vm.Scenario) (sim.Stats, error) {
	if rem := r.sh.remote; rem != nil {
		sts, err := rem.RunConfigs(r.Context(), app, sc, r.opts.Seed, r.opts.records(), []sim.Config{cfg})
		if err != nil {
			return sim.Stats{}, err
		}
		if len(sts) != 1 {
			return sim.Stats{}, fmt.Errorf("exp: remote returned %d stats for 1 config", len(sts))
		}
		return sts[0], nil
	}
	buf, err := r.buffer(app, sc)
	if errors.Is(err, errPoolDeclined) {
		r.noteDegraded()
		return r.runLive(app, cfg, sc)
	}
	if err != nil {
		return sim.Stats{}, err
	}
	st, err := sim.RunBuffer(r.ctx, app, buf, cfg, r.opts.Seed)
	if err != nil {
		return sim.Stats{}, fmt.Errorf("exp: %s on %s/%s: %w", app, cfg.Label(), sc, err)
	}
	return st, nil
}

// RunConfigs simulates (memoised) one app across many configs under one
// scenario, advancing all not-yet-cached configs in lockstep through a
// single pass over the app's materialised trace (sim.RunConfigs). It
// returns positionally: out[i] is cfgs[i]'s stats, bit-for-bit what
// Run(app, cfgs[i], sc) returns. Figures that sweep configurations over
// a fixed app call this instead of looping Run, turning K decode+sim
// passes into one decode feeding K simulator states.
func (r *Runner) RunConfigs(app string, cfgs []sim.Config, sc vm.Scenario) ([]sim.Stats, error) {
	out := make([]sim.Stats, len(cfgs))
	keys := make([]string, len(cfgs))
	cached := make([]bool, len(cfgs))

	// Partition into already-memoised and to-compute, deduplicating the
	// latter (duplicate configs would otherwise burn a fused lane each).
	uniqAt := make(map[string]int)
	var uniq []sim.Config
	var uniqKeys []string
	for i, cfg := range cfgs {
		keys[i] = r.key(app, cfg, sc)
		if st, ok := r.sh.cache.Get(keys[i]); ok {
			out[i] = st
			cached[i] = true
			continue
		}
		if _, seen := uniqAt[keys[i]]; !seen {
			uniqAt[keys[i]] = len(uniq)
			uniq = append(uniq, cfg)
			uniqKeys = append(uniqKeys, keys[i])
		}
	}
	if len(uniq) == 0 {
		return out, nil
	}

	// Second partition, against the persistent tier: results computed
	// by a previous process fill their lanes directly; only the rest is
	// simulated (or dispatched). A fully warm sweep never touches the
	// trace pool, so a restarted daemon serves figures without
	// re-materialising a single trace.
	all := make([]sim.Stats, len(uniq))
	var todo []sim.Config
	var todoAt []int
	var skeys []store.Key
	if r.sh.store != nil {
		digest := r.traceDigest(app, sc)
		skeys = make([]store.Key, len(uniq))
		for i, cfg := range uniq {
			skeys[i] = r.resultStoreKey(digest, uniqKeys[i])
			if st, ok := r.storeGet(skeys[i]); ok {
				all[i] = st
				continue
			}
			todo = append(todo, cfg)
			todoAt = append(todoAt, i)
		}
	} else {
		todo = uniq
		todoAt = make([]int, len(uniq))
		for i := range uniq {
			todoAt[i] = i
		}
	}
	if len(todo) == 0 {
		return r.publish(out, keys, cached, uniqAt, all)
	}
	persist := func(fresh []sim.Stats) {
		for j, st := range fresh {
			all[todoAt[j]] = st
			if skeys != nil {
				r.storePut(skeys[todoAt[j]], st)
			}
		}
	}

	if rem := r.sh.remote; rem != nil {
		// Remote dispatch: the whole uncached batch travels as one
		// shard, so the worker's fused pass covers exactly the lanes a
		// local run would.
		sts, err := rem.RunConfigs(r.Context(), app, sc, r.opts.Seed, r.opts.records(), todo)
		if err != nil {
			return nil, err
		}
		if len(sts) != len(todo) {
			return nil, fmt.Errorf("exp: remote returned %d stats for %d configs", len(sts), len(todo))
		}
		r.sh.sims.Add(uint64(len(todo)))
		persist(sts)
		return r.publish(out, keys, cached, uniqAt, all)
	}

	buf, err := r.buffer(app, sc)
	var fresh []sim.Stats
	switch {
	case errors.Is(err, errPoolDeclined):
		// No materialised trace: stream each config live.
		fresh = make([]sim.Stats, len(todo))
		for j, cfg := range todo {
			r.noteDegraded()
			if fresh[j], err = r.runLive(app, cfg, sc); err != nil {
				return nil, err
			}
		}
	case err != nil:
		return nil, err
	default:
		if fresh, err = sim.RunConfigs(r.ctx, app, buf, todo, r.opts.Seed); err != nil {
			return nil, fmt.Errorf("exp: fused %s/%s (%d configs): %w", app, sc, len(todo), err)
		}
	}
	r.sh.sims.Add(uint64(len(todo)))
	persist(fresh)
	return r.publish(out, keys, cached, uniqAt, all)
}

// publish writes a fused batch's stats through the memo cache so later
// Run/RunConfigs calls (and figures sharing baselines) hit, and fills
// out positionally. A racing solo computation of the same key wins
// harmlessly: both computed identical stats.
func (r *Runner) publish(out []sim.Stats, keys []string, cached []bool,
	uniqAt map[string]int, fused []sim.Stats) ([]sim.Stats, error) {

	for i := range out {
		if cached[i] {
			continue
		}
		st := fused[uniqAt[keys[i]]]
		var err error
		out[i], err = r.sh.cache.Do(keys[i], func() (sim.Stats, error) { return st, nil })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TracePoolStats is the trace pool's memo.Stats, whose cost unit is
// bytes. Oversize also counts runs streamed live because their trace
// was too long to ask the pool for.
type TracePoolStats struct {
	memo.Stats
	Bytes int64 // resident payload bytes (Stats.Cost)
}

// TraceStats snapshots the shared trace pool counters for the daemon's
// /metrics endpoint.
func (r *Runner) TraceStats() TracePoolStats {
	st := r.sh.traces.Stats()
	st.Oversize += r.sh.oversize.Load()
	return TracePoolStats{Stats: st, Bytes: st.Cost}
}
