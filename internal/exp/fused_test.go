package exp

import (
	"strings"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/sim"
	"sipt/internal/vm"
)

// renderAll runs one experiment on the given runner and concatenates
// every rendered table.
func renderAll(t *testing.T, e Experiment, r *Runner) string {
	t.Helper()
	tabs, err := e.Run(r)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	var b strings.Builder
	for _, tab := range tabs {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// liveRunner builds a runner whose pool retains no trace at all, so
// every run and raw-trace drain streams from a live generator through
// the same oversize branch the daemon takes for traces too long to
// pool: the pre-replay path, one generator pass per config.
func liveRunner(opts Options) *Runner {
	r := NewRunner(opts)
	r.sh.maxTraceBytes = 0
	return r
}

// TestFusedMatchesLegacy is the replay engine's end-to-end equivalence
// gate: every experiment must render byte-identically whether runs
// replay materialised traces through fused lockstep sweeps (the
// default) or regenerate each trace live per config (liveRunner). A
// short trace and two apps keep the full experiment catalogue
// tractable.
func TestFusedMatchesLegacy(t *testing.T) {
	opts := Options{
		Records: 5_000,
		Seed:    1,
		Apps:    []string{"libquantum", "gcc"},
		Workers: 2,
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			fused := renderAll(t, e, NewRunner(opts))
			live := liveRunner(opts)
			legacy := renderAll(t, e, live)
			if fused != legacy {
				t.Errorf("%s: fused replay output differs from live generation.\n--- fused ---\n%s\n--- live ---\n%s",
					e.ID, fused, legacy)
			}
			if st := live.TraceStats(); st.Misses != 0 || st.Entries != 0 {
				t.Errorf("%s: the live reference touched the trace pool: %+v", e.ID, st)
			}
		})
	}
}

// TestRunConfigsDegradedCountedOnce guards the degraded sweep path
// against double counting: a batch whose trace is too long to pool runs
// each config live, each of those runs counts as exactly one degraded
// run and one oversize trace, the batch that routes them adds none, and
// each config is looked up in the store and persisted once, as on the
// fused path.
func TestRunConfigsDegradedCountedOnce(t *testing.T) {
	// 1 MiB over 8 shards retains 8 Ki records per trace; 10k is over.
	r := NewRunner(Options{Records: 10_000, Seed: 1, TracePoolMB: 1, Store: openStore(t, t.TempDir())})
	cfgs := []sim.Config{
		sim.Baseline(cpu.OOO()),
		sim.SIPT(cpu.OOO(), 32, 2, core.ModeNaive),
		sim.SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
	}
	if _, err := r.RunConfigs("mcf", cfgs, vm.ScenarioNormal); err != nil {
		t.Fatal(err)
	}
	if r.Simulations() != 3 || r.DegradedRuns() != 3 || r.TraceStats().Oversize != 3 {
		t.Fatalf("simulations %d, degraded %d, oversize %d; want 3 each",
			r.Simulations(), r.DegradedRuns(), r.TraceStats().Oversize)
	}
	if st, _ := r.StoreStats(); st.Hits != 0 || st.Misses != 3 || st.Puts != 3 {
		t.Fatalf("store %+v; want 3 misses and 3 puts", st)
	}
}

// TestTraceOversizeCounted asserts runs whose trace is too long to pool
// are visible in the pool's oversize counter even though they never
// ask the pool, and leave its other counters alone.
func TestTraceOversizeCounted(t *testing.T) {
	r := liveRunner(Options{Records: 1_000, Seed: 1})
	if st := r.TraceStats(); st.Oversize != 0 {
		t.Fatalf("fresh runner reports oversize: %+v", st)
	}
	for _, m := range []core.Mode{core.ModeNaive, core.ModeCombined} {
		if _, err := r.Run("gcc", sim.SIPT(cpu.OOO(), 32, 2, m), vm.ScenarioNormal); err != nil {
			t.Fatal(err)
		}
	}
	st := r.TraceStats()
	if st.Oversize != 2 || r.DegradedRuns() != 2 {
		t.Fatalf("oversize %d, degraded %d; want 2 each", st.Oversize, r.DegradedRuns())
	}
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.Bytes != 0 {
		t.Fatalf("oversize runs disturbed the pool counters: %+v", st)
	}
}
