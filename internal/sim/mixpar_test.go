package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/replay"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// TestMixDecoupledDeterministic is the parallel-mix determinism gate:
// the one-goroutine-per-lane execution must reproduce the sequential
// execution of the same decoupled semantics bit for bit, run after run.
// Eight repetitions under -race give the scheduler room to interleave
// lanes differently; any cross-lane sharing would show up either as a
// race report or as a diverging result.
func TestMixDecoupledDeterministic(t *testing.T) {
	mix := workload.Mix{Name: "t-mix", Apps: [4]string{"libquantum", "gcc", "h264ref", "ycsb"}}
	cfg := SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	const recs = 4_000

	seq, err := RunMixDecoupled(context.Background(), mix, cfg, vm.ScenarioNormal, 11, recs, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, pc := range seq.PerCore {
		if pc.Core.Instructions == 0 {
			t.Fatalf("lane %d executed no instructions", i)
		}
	}
	for rep := 0; rep < 8; rep++ {
		par, err := RunMixDecoupled(context.Background(), mix, cfg, vm.ScenarioNormal, 11, recs, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("rep %d: parallel decoupled mix differs from sequential\nseq: %+v\npar: %+v", rep, seq, par)
		}
	}
}

// TestMixBuffersDecoupledDeterministic covers the replay-backed
// variant: lanes share read-only buffers, and parallel must still match
// sequential exactly.
func TestMixBuffersDecoupledDeterministic(t *testing.T) {
	mix := workload.Mix{Name: "t-mix-buf", Apps: [4]string{"libquantum", "gcc", "h264ref", "ycsb"}}
	cfg := SIPT(cpu.OOO(), 32, 2, core.ModeCombined)
	const recs = 4_000

	var bufs [4]*replay.Buffer
	for i, name := range mix.Apps {
		prof := smallProf(t, name, 2)
		buf, err := Materialize(prof, vm.ScenarioNormal, 11+int64(i), recs)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = buf
	}
	seq, err := RunMixBuffersDecoupled(context.Background(), mix, cfg, bufs, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 8; rep++ {
		par, err := RunMixBuffersDecoupled(context.Background(), mix, cfg, bufs, 11, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("rep %d: parallel buffered decoupled mix differs from sequential", rep)
		}
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
