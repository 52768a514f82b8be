package sim

import (
	"context"
	"math/rand"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/memaddr"
	"sipt/internal/replay"
	"sipt/internal/trace"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// TestRunBufferMatchesRunApp is the replay-path determinism contract:
// materialising a trace and replaying it must reproduce the live run
// bit-for-bit, field for field.
func TestRunBufferMatchesRunApp(t *testing.T) {
	prof := smallProf(t, "libquantum", 4)
	cfg := SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	for _, sc := range []vm.Scenario{vm.ScenarioNormal, vm.ScenarioFragmented} {
		live, err := RunApp(context.Background(), prof, cfg, sc, 3, testRecords)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := Materialize(prof, sc, 3, testRecords)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := RunBuffer(context.Background(), prof.Name, buf, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if live != replayed {
			t.Errorf("%s: replayed stats differ from live run\nlive:   %+v\nreplay: %+v", sc, live, replayed)
		}
	}
}

// TestRunConfigsMatchesSoloRuns asserts the fused lockstep sweep
// returns, positionally, exactly what per-config solo replays return —
// including duplicate configurations.
func TestRunConfigsMatchesSoloRuns(t *testing.T) {
	prof := smallProf(t, "gcc", 2)
	buf, err := Materialize(prof, vm.ScenarioNormal, 7, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		Baseline(cpu.OOO()),
		SIPT(cpu.OOO(), 32, 2, core.ModeCombined),
		SIPT(cpu.OOO(), 64, 4, core.ModeNaive),
		SIPT(cpu.OOO(), 32, 2, core.ModeCombined), // duplicate: simulated independently
	}
	fused, err := RunConfigs(context.Background(), prof.Name, buf, cfgs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused) != len(cfgs) {
		t.Fatalf("got %d results for %d configs", len(fused), len(cfgs))
	}
	for i, cfg := range cfgs {
		solo, err := RunBuffer(context.Background(), prof.Name, buf, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fused[i] != solo {
			t.Errorf("config %d (%s): fused differs from solo\nfused: %+v\nsolo:  %+v",
				i, cfg.Label(), fused[i], solo)
		}
	}
	if fused[1] != fused[3] {
		t.Error("duplicate configs produced different results")
	}
}

// TestRunConfigsCancellation asserts the fused loop honours ctx like
// the solo paths do.
func TestRunConfigsCancellation(t *testing.T) {
	prof := smallProf(t, "gcc", 2)
	buf, err := Materialize(prof, vm.ScenarioNormal, 7, testRecords)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunConfigs(ctx, prof.Name, buf, []Config{Baseline(cpu.OOO())}, 7); err == nil {
		t.Fatal("cancelled fused run returned nil error")
	}
}

// TestRunConfigsRandomizedMatchesSolo is the SoA kernel's property
// test: for randomized config sets — 1..16 lanes drawn with
// replacement, so duplicates occur — the fused sweep must return,
// positionally, the byte-for-byte result of a solo RunBuffer replay of
// each lane. The pool holds out-of-order and in-order twins of every
// SIPT L1, so the draws form shared-front-end groups of 1..k lanes that
// mix core models; the first trial runs the whole pool at once. The
// fragmented scenario's trace adds frequent misspeculation, and the
// stores of both traces exercise dirty-victim replay.
func TestRunConfigsRandomizedMatchesSolo(t *testing.T) {
	prof := smallProf(t, "ycsb", 2)
	const recs = 8_000
	var pool []Config
	for _, c := range []cpu.Config{cpu.OOO(), cpu.InOrder()} {
		noContig := SIPT(c, 32, 4, core.ModeCombined)
		noContig.NoContig = true
		wayPred := SIPT(c, 32, 2, core.ModeCombined)
		wayPred.WayPrediction = true
		pool = append(pool,
			Baseline(c),
			SIPT(c, 32, 2, core.ModeNaive),
			SIPT(c, 32, 2, core.ModeIdeal),
			SIPT(c, 32, 2, core.ModeBypass),
			SIPT(c, 32, 2, core.ModeCombined),
			SIPT(c, 64, 4, core.ModeCombined),
			SIPT(c, 128, 4, core.ModeCombined),
			SIPT(c, 64, 4, core.ModeNaive),
			noContig,
			wayPred,
		)
	}
	for _, sc := range []vm.Scenario{vm.ScenarioNormal, vm.ScenarioFragmented} {
		t.Run(sc.String(), func(t *testing.T) {
			buf, err := Materialize(prof, sc, 5, recs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			solo := make(map[int]Stats) // pool index -> stats, computed once
			for trial := 0; trial < 6; trial++ {
				var picks []int
				if trial == 0 {
					for i := range pool {
						picks = append(picks, i)
					}
				} else {
					for n := 1 + rng.Intn(16); len(picks) < n; {
						picks = append(picks, rng.Intn(len(pool)))
					}
				}
				cfgs := make([]Config, len(picks))
				for i, pi := range picks {
					cfgs[i] = pool[pi]
				}
				fused, err := RunConfigs(context.Background(), prof.Name, buf, cfgs, 5)
				if err != nil {
					t.Fatal(err)
				}
				for i, pi := range picks {
					want, ok := solo[pi]
					if !ok {
						want, err = RunBuffer(context.Background(), prof.Name, buf, pool[pi], 5)
						if err != nil {
							t.Fatal(err)
						}
						if want.L1C.Writebacks == 0 {
							t.Fatalf("%s: no dirty L1 victims; dirty-victim replay is untested", pool[pi].Label())
						}
						solo[pi] = want
					}
					if fused[i] != want {
						t.Errorf("trial %d lane %d (%s %s): fused differs from solo\nfused: %+v\nsolo:  %+v",
							trial, i, cfgs[i].Core.Name, cfgs[i].Label(), fused[i], want)
					}
				}
			}
		})
	}
}

// TestEveryTracePacks checks that every synthetic workload, in every
// memory scenario, materialises into the packed replay encoding at the
// harness's default length: no synthetic trace needs the live-generation
// fallback Materialize's callers keep for unpackable traces.
func TestEveryTracePacks(t *testing.T) {
	if testing.Short() {
		t.Skip("materialises every app in every scenario at DefaultRecords")
	}
	for _, app := range workload.AllApps() {
		prof := workload.MustLookup(app)
		for _, sc := range vm.Scenarios() {
			buf, err := Materialize(prof, sc, 1, DefaultRecords)
			if err != nil {
				t.Errorf("%s/%s: %v", app, sc, err)
				continue
			}
			if buf.Len() != DefaultRecords {
				t.Errorf("%s/%s: %d records, want %d", app, sc, buf.Len(), DefaultRecords)
			}
		}
	}
}

// TestRunConfigsChaseFallbackMatchesSolo drives the fused kernel over a
// hand-built trace the synthetic workloads never produce: chase PCs
// beyond the cores' dense chain table (their map fallback) and gaps up
// to the uint16 limit. An out-of-order and an in-order core share one
// L1 configuration, so the second lane is a front-end follower; each
// lane must still match a solo run of the same configuration.
func TestRunConfigsChaseFallbackMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := make([]trace.Record, 6000)
	for i := range recs {
		pc := uint64(cpu.ChainDenseSlots*4 + 0x400000 + 4*rng.Intn(32))
		if rng.Intn(2) == 0 {
			pc = uint64(0x400000 + 4*rng.Intn(32))
		}
		gap := uint16(rng.Intn(10))
		if rng.Intn(500) == 0 {
			gap = 65535
		}
		vpage := uint64(rng.Intn(2048))
		off := uint64(rng.Intn(64)) << 6
		r := trace.Record{
			PC:      pc,
			VA:      memaddr.VAddr(0x7f0000000000 + vpage<<12 | off),
			PA:      memaddr.PAddr((vpage*7919%4096+4096)<<12 | off),
			Gap:     gap,
			DepDist: uint8(1 + rng.Intn(8)),
		}
		if rng.Intn(4) == 0 {
			r.Flags, r.DepDist = trace.FlagStore, 0
		}
		recs[i] = r
	}
	buf, err := replay.FromReader(trace.NewSliceReader(recs), len(recs))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{SIPT(cpu.OOO(), 32, 2, core.ModeCombined), SIPT(cpu.InOrder(), 32, 2, core.ModeCombined)}
	s, err := newSoaSweep(context.Background(), cfgs, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	s.release()
	if s.lead[1] != 0 {
		t.Fatal("the in-order lane does not follow the out-of-order lane's front end")
	}
	fused, err := RunConfigs(context.Background(), "chase", buf, cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := RunTrace(context.Background(), "chase", trace.NewSliceReader(recs), cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if fused[i] != want {
			t.Errorf("%s %s: fused differs from solo\nfused: %+v\nsolo:  %+v", cfg.Core.Name, cfg.Label(), fused[i], want)
		}
		if want.Core.Instructions < 65535 {
			t.Errorf("%s: %d instructions; the long gaps were not drawn", cfg.Core.Name, want.Core.Instructions)
		}
	}
}
