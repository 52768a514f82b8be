package sim

import (
	"context"
	"fmt"

	"sipt/internal/replay"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// Materialize generates one workload's trace into a packed replay
// buffer: the identical record stream RunApp would consume live, built
// with the identical system construction (same scenario, same seed,
// same allocation phase), so replaying the buffer reproduces RunApp
// bit-for-bit. records bounds the trace length (0 = DefaultRecords).
//
// Traces whose records do not fit the packed encoding return an error
// wrapping replay.ErrUnpackable. Synthetic data traces always fit
// (TestEveryTracePacks), so this is an ordinary failure.
func Materialize(prof workload.Profile, sc vm.Scenario, seed int64, records uint64) (*replay.Buffer, error) {
	if records == 0 {
		records = DefaultRecords
	}
	sys := NewSystem(sc, seed, prof)
	gen, err := workload.NewGenerator(prof, sys, seed, records)
	if err != nil {
		return nil, err
	}
	buf, err := replay.FromReader(gen, int(records))
	if err != nil {
		return nil, fmt.Errorf("sim: materialising %s/%s: %w", prof.Name, sc, err)
	}
	return buf, nil
}

// RunBuffer is the replay-aware RunApp: it simulates one configuration
// streaming from a materialised buffer instead of a live generator.
// Context semantics match RunApp.
func RunBuffer(ctx context.Context, name string, buf *replay.Buffer, cfg Config, seed int64) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	return runReader(ctx, name, buf.Cursor(), cfg, seed, 0)
}

// RunConfigs advances len(cfgs) independent simulated systems over one
// materialised trace through the structure-of-arrays sweep kernel (see
// soa.go): every lane's machine state, its cpu.Core included, is carved
// from contiguous same-field slabs and each lane makes one pass over the
// packed words. Each configuration gets the full private timed
// machinery of a solo run (per-config L1 port, L2, LLC and DRAM —
// these are single-core systems that share nothing timed), so
// RunConfigs(buf, cfgs) returns exactly what looping RunBuffer over
// cfgs would, for a fraction of the decode and none of the
// re-generation cost. Lanes with the same L1 configuration (the
// in-order and out-of-order twins of one L1, say) also share one
// simulation of the timing-independent L1 and TLB front end.
//
// Context semantics match RunApp: each lane's pass polls ctx every
// cpu.CtxCheckInterval records. Results are positional: out[i]
// corresponds to cfgs[i]. Duplicate configurations are simulated
// independently (callers that care deduplicate beforehand).
func RunConfigs(ctx context.Context, name string, buf *replay.Buffer, cfgs []Config, seed int64) ([]Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := newSoaSweep(ctx, cfgs, seed, buf)
	if err != nil {
		return nil, err
	}
	defer s.release()
	words := buf.Words()
	for lane := range cfgs {
		if err := s.runLane(ctx, lane, words); err != nil {
			return nil, fmt.Errorf("sim: fused run of %s (%d configs): %w", name, len(cfgs), err)
		}
	}

	out := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		// Sweep-scaled like the setup loop: poll per config.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if l := s.lead[i]; l != i {
			// The leader charged the shared L1 and predictor events.
			s.accts[i].MergeL1(&s.accts[l])
		}
		st := collect(cfg, name, s.cores[i].Result(), &s.hs[i], &s.accts[i])
		if err := st.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("sim: fused run of %s on %s: %w", name, cfg.Label(), err)
		}
		out[i] = st
	}
	return out, nil
}
