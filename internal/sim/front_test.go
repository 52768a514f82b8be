package sim

import (
	"context"
	"strings"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/tlb"
	"sipt/internal/vm"
)

// fig18L1s returns Fig. 18's L1 configurations on one core under one
// scenario: the baseline and the four SIPT+IDB geometries.
func fig18L1s(c cpu.Config, sc vm.Scenario) []Config {
	cfgs := []Config{Baseline(c)}
	for _, g := range SIPTGeometries() {
		cfg := SIPT(c, g[0], g[1], core.ModeCombined)
		cfg.NoContig = sc == vm.ScenarioNoContig
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestFrontEndIndependentOfCore is the invariant the shared front end
// rests on: the L1, its predictors and the TLB see only the record
// stream, so solo runs of the out-of-order and in-order twins of one
// L1 — whose timing and lower hierarchy differ — must agree on every
// L1, TLB and predictor counter, in every scenario.
func TestFrontEndIndependentOfCore(t *testing.T) {
	prof := smallProf(t, "ycsb", 2)
	for _, sc := range vm.Scenarios() {
		buf, err := Materialize(prof, sc, 3, 6_000)
		if err != nil {
			t.Fatal(err)
		}
		ooo, ino := fig18L1s(cpu.OOO(), sc), fig18L1s(cpu.InOrder(), sc)
		for i := range ooo {
			a, err := RunBuffer(context.Background(), prof.Name, buf, ooo[i], 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunBuffer(context.Background(), prof.Name, buf, ino[i], 3)
			if err != nil {
				t.Fatal(err)
			}
			if a.Core == b.Core {
				t.Errorf("%s %s: the twins' core results agree; the test cannot tell timing apart", sc, ooo[i].Label())
			}
			if a.L1 != b.L1 || a.L1C != b.L1C || a.TLB != b.TLB || a.Bypass != b.Bypass || a.IDB != b.IDB {
				t.Errorf("%s %s: front-end stats differ between cores\nooo:     L1 %+v L1C %+v TLB %+v Bypass %+v IDB %+v\ninorder: L1 %+v L1C %+v TLB %+v Bypass %+v IDB %+v",
					sc, ooo[i].Label(), a.L1, a.L1C, a.TLB, a.Bypass, a.IDB, b.L1, b.L1C, b.TLB, b.Bypass, b.IDB)
			}
		}
	}
}

// TestCheckEventFits pins the event encoding's bound check: Tab. II's
// L1s fit, and an L1 whose worst front-end latency overflows the
// latency field is refused by name instead of being truncated.
func TestCheckEventFits(t *testing.T) {
	tc := tlb.Default()
	for _, c := range []cpu.Config{cpu.OOO(), cpu.InOrder()} {
		for _, cfg := range fig18L1s(c, vm.ScenarioNormal) {
			cfg.WayPrediction = true
			if err := checkEventFits(cfg.l1Config(1), tc); err != nil {
				t.Errorf("%s: %v", cfg.Label(), err)
			}
		}
	}

	l1 := SIPT(cpu.OOO(), 32, 2, core.ModeCombined).l1Config(1)
	l1.WayPrediction = true
	// Slow path plus way mispredict plus walk, exactly at the limit.
	l1.Cache.LatencyCycles = (evLatMax - l1.TLBLatency - tc.L2Latency - tc.WalkLatency) / 2
	if err := checkEventFits(l1, tc); err != nil {
		t.Errorf("latency %d at the limit: %v", l1.Cache.LatencyCycles, err)
	}
	l1.Cache.LatencyCycles++
	if err := checkEventFits(l1, tc); err == nil || !strings.Contains(err.Error(), "latency") {
		t.Errorf("latency %d over the limit: err = %v, want a latency error", l1.Cache.LatencyCycles, err)
	}
	tc.WalkLatency = evLatMax
	l1.Cache.LatencyCycles = 1
	if err := checkEventFits(l1, tc); err == nil {
		t.Error("a walk longer than the latency field was accepted")
	}
}

// TestRunConfigsRefusesOverlongEvents drives the bound check through
// the kernel: twins of an L1 so associative that its CACTI latency
// cannot be encoded must fail with an error naming the config, while the same
// L1 alone (no shared front end, nothing encoded) still runs.
func TestRunConfigsRefusesOverlongEvents(t *testing.T) {
	prof := smallProf(t, "libquantum", 1)
	buf, err := Materialize(prof, vm.ScenarioNormal, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	huge := SIPT(cpu.OOO(), 32, 512, core.ModeNaive)
	twin := huge
	twin.Core = cpu.InOrder()
	_, err = RunConfigs(context.Background(), prof.Name, buf, []Config{huge, twin}, 1)
	if err == nil || !strings.Contains(err.Error(), huge.Label()) {
		t.Fatalf("err = %v, want an error naming %s", err, huge.Label())
	}
	if _, err := RunConfigs(context.Background(), prof.Name, buf, []Config{huge}, 1); err != nil {
		t.Fatalf("solo lane: %v", err)
	}
}
