// Package cpu provides the cycle-approximate trace-driven core models
// the experiments run on: a 6-wide, 192-entry-ROB out-of-order core and
// a 2-wide in-order core (Tab. II).
//
// The models capture exactly the mechanisms that convert L1 latency and
// SIPT's extra accesses into IPC:
//
//   - dispatch bandwidth (width instructions per cycle);
//   - ROB occupancy: instruction i cannot dispatch until i-ROB retired,
//     so long-latency loads throttle the window (this is what gives the
//     OOO core memory-level parallelism and bounds it);
//   - load-use dependences: on the in-order core the consumer
//     (DepDist instructions after a load) stalls dispatch until the
//     load completes; on the OOO core short-DepDist loads form
//     same-PC chains (pointer chasing: each iteration's load needs the
//     previous one's value for its address);
//   - in-order retirement.
//
// Everything below the core (SIPT L1, TLB, L2/LLC/DRAM, port
// contention) lives behind the MemSystem interface.
//
// Core is the repository's only core timing model. Solo runs and
// multicore mixes build cores with NewCore; the fused sweep kernel
// (internal/sim) carves them, with their timing rings, from per-sweep
// slabs through Init and steps them record by record.
package cpu

import (
	"context"
	"errors"
	"fmt"
	"io"

	"sipt/internal/trace"
)

// Config describes a core.
type Config struct {
	Name string
	// Width is the dispatch width in instructions per cycle.
	Width int
	// ROB is the reorder window; for the in-order core it models the
	// small scoreboard that bounds outstanding misses.
	ROB int
	// InOrder enables stall-on-use: a load's consumer blocks dispatch.
	InOrder bool
	// HideLatency is the load-to-use latency, in cycles, the core's
	// scheduler absorbs before a consumer stalls dispatch (speculative
	// wakeup and surrounding ILP). In-order cores hide nothing.
	HideLatency int
	// StallCap bounds which loads exert consumer stalls on an OOO core:
	// latencies above the cap (cache misses) are overlapped by the
	// ROB/MSHR machinery instead, preserving memory-level parallelism.
	// Zero means no consumer stalls at all; ignored when InOrder.
	StallCap int
}

// OOO returns the paper's out-of-order core: 6-wide, 192-entry ROB,
// 3 GHz. The scheduler hides the first cycles of load-to-use latency;
// longer hit latencies leak into dispatch via dependent consumers,
// which is what makes L1 latency matter on real OOO cores.
func OOO() Config {
	return Config{Name: "ooo", Width: 6, ROB: 192, HideLatency: 2, StallCap: 12}
}

// InOrder returns the paper's in-order core: 2-wide, 3 GHz,
// stall-on-use with no latency hiding.
func InOrder() Config { return Config{Name: "inorder", Width: 2, ROB: 32, InOrder: true} }

// Validate reports malformed configurations.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0:
		return fmt.Errorf("cpu: width = %d", c.Width)
	case c.ROB <= 0:
		return fmt.Errorf("cpu: ROB = %d", c.ROB)
	}
	return nil
}

// MemResult is the hierarchy's answer for one access.
type MemResult struct {
	// Latency is the cycles from issue until load data is available
	// (stores are buffered and do not stall the core).
	Latency int
}

// MemSystem services memory accesses. now is the access's issue cycle;
// implementations account port contention, SIPT outcomes, caches, TLB,
// and DRAM behind this call. The record is passed by pointer purely to
// keep the per-access copy off the hot path; implementations must not
// retain or mutate it.
type MemSystem interface {
	Access(rec *trace.Record, now uint64) MemResult
}

// Result summarises one core run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// chaseDistMax is the DepDist at or below which a load is treated as
// part of a pointer chase (its address depends on the previous load of
// the same PC).
const chaseDistMax = 3

// StallRingSize sizes the consumer-stall ring (consumer instruction
// index -> cycle its operand is ready), above the maximum DepDist.
const StallRingSize = 256

// chainBase is the code region synthetic workloads place memory PCs in
// (workload.Generator's basePC); PCs in [chainBase, chainBase+4*ChainDenseSlots)
// take the allocation-free dense path.
const (
	chainBase       = 0x400000
	ChainDenseSlots = 1 << 14
)

// Core is a single core's timing state. One Core simulates one trace;
// build a fresh one per run, with NewCore or, over caller-owned slabs,
// with Init.
type Core struct {
	cfg Config
	mem MemSystem

	dispatchCycle uint64
	slotsUsed     int
	lastRetire    uint64
	retireRing    []uint64
	instr         uint64
	// robIdx == instr % ROB, maintained incrementally: the ROB sizes
	// (192, 32) are not powers of two, and a hardware divide per
	// simulated instruction dominated the dispatch loop.
	robIdx int
	// stallOn caches cfg.InOrder || cfg.StallCap > 0.
	stallOn bool

	// chainDense/chainMap map a load PC to its last completion time (OOO
	// pointer-chase chains). Synthetic traces use a small dense PC range
	// starting at chainBase, served by a slice; anything else (replayed
	// real traces) falls back to the map.
	chainDense []uint64
	chainMap   map[uint64]uint64
	// stallReady implements the in-order stall-on-use ring.
	stallReady *[StallRingSize]uint64

	res Result
}

//sipt:hotpath
func (c *Core) chainGet(pc uint64) uint64 {
	if idx := (pc - chainBase) >> 2; idx < uint64(len(c.chainDense)) {
		return c.chainDense[idx]
	} else if idx < ChainDenseSlots {
		return 0
	}
	//siptlint:allow hotalloc: cold fallback, reached only by replayed real traces with PCs outside the dense range
	return c.chainMap[pc]
}

func (c *Core) chainSet(pc, completion uint64) {
	idx := (pc - chainBase) >> 2
	if idx < ChainDenseSlots {
		if idx >= uint64(len(c.chainDense)) {
			grown := make([]uint64, (idx+1)*2)
			copy(grown, c.chainDense)
			c.chainDense = grown
		}
		c.chainDense[idx] = completion
		return
	}
	if c.chainMap == nil {
		c.chainMap = make(map[uint64]uint64)
	}
	c.chainMap[pc] = completion
}

// NewCore builds a core over a memory system; it panics on invalid
// configuration.
func NewCore(cfg Config, mem MemSystem) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return new(Core).Init(cfg, mem, make([]uint64, cfg.ROB), new([StallRingSize]uint64), nil)
}

// Init resets c to a fresh core over mem whose timing rings live in
// caller-owned memory, in the style of core.L1.InitOver: ring is the
// retire ring (len(ring) must equal cfg.ROB), stall the consumer-stall
// ring, and chain the dense pointer-chase table, of at most
// ChainDenseSlots entries (it grows on demand when shorter). The slabs
// must be zeroed. It returns c and panics on invalid configuration.
func (c *Core) Init(cfg Config, mem MemSystem, ring []uint64, stall *[StallRingSize]uint64, chain []uint64) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mem == nil {
		panic("cpu: nil MemSystem")
	}
	if len(ring) != cfg.ROB || len(chain) > ChainDenseSlots {
		panic(fmt.Sprintf("cpu: %d-entry retire ring and %d-entry chase table for a %d-entry ROB",
			len(ring), len(chain), cfg.ROB))
	}
	*c = Core{
		cfg:        cfg,
		mem:        mem,
		retireRing: ring,
		stallOn:    cfg.InOrder || cfg.StallCap > 0,
		chainDense: chain,
		stallReady: stall,
	}
	return c
}

// Cycles returns the current cycle (the last retirement time).
func (c *Core) Cycles() uint64 { return c.lastRetire }

// Result returns the run summary so far.
func (c *Core) Result() Result {
	r := c.res
	r.Instructions = c.instr
	r.Cycles = c.lastRetire
	return r
}

// step simulates one trace record: its rec.Gap leading non-memory
// unit-latency instructions, then the access itself. Every instruction
// dispatches honouring width, ROB occupancy (instruction i waits for
// i-ROB to retire) and consumer stalls, and retires in order. The
// timing scalars live in locals for the whole record and are written
// back once at its end: gap instructions are the majority of all
// instructions and touch nothing but the rings.
//
//sipt:hotpath
func (c *Core) step(rec *trace.Record) {
	d, u, r := c.dispatchCycle, c.slotsUsed, c.lastRetire
	ri, ins := c.robIdx, c.instr
	ring, stall := c.retireRing, c.stallReady
	width, rob, stallOn := c.cfg.Width, c.cfg.ROB, c.stallOn
	gap := rec.Gap

	// Dispatch gap+1 instructions; the last one is the access, which
	// dispatches at cycle at.
	var at uint64
	for g := uint16(0); ; g++ {
		if floor := ring[ri]; floor > d {
			d = floor
			u = 0
		}
		if stallOn {
			slot := ins % StallRingSize
			if ready := stall[slot]; ready != 0 {
				if ready > d {
					d = ready
					u = 0
				}
				stall[slot] = 0
			}
		}
		at = d
		u++
		if u >= width {
			d++
			u = 0
		}
		if g == gap {
			break
		}
		completion := at + 1
		if completion < r {
			completion = r
		}
		ring[ri] = completion
		ri++
		if ri == rob {
			ri = 0
		}
		r = completion
		ins++
	}

	var completion uint64
	if rec.IsStore() {
		c.res.Stores++
		// Stores retire from a write buffer: unit latency for the core;
		// the hierarchy still sees the access now.
		c.mem.Access(rec, at)
		completion = at + 1
	} else {
		c.res.Loads++
		issue := at
		chase := rec.DepDist > 0 && rec.DepDist <= chaseDistMax
		if chase {
			// Address depends on the previous load of this PC.
			if ready := c.chainGet(rec.PC); ready > issue {
				issue = ready
			}
		}
		lat := c.mem.Access(rec, issue).Latency
		completion = issue + uint64(lat)
		if chase {
			c.chainSet(rec.PC, completion)
		}
		// Consumer stall: the instruction DepDist later needs the data.
		// The in-order core stalls for the full latency. The OOO core
		// absorbs HideLatency cycles, and its stall contribution is
		// clamped to StallCap: hit-class latencies leak into dispatch
		// almost fully, while misses beyond the cap are overlapped by
		// the ROB (their consumers pay only the bounded scheduler-replay
		// cost).
		stallAt := completion
		apply := c.cfg.InOrder
		if !apply && c.cfg.StallCap > 0 {
			apply = true
			exposed := lat
			if exposed > c.cfg.StallCap {
				exposed = c.cfg.StallCap
			}
			exposed -= c.cfg.HideLatency
			if exposed <= 0 {
				apply = false
			} else {
				stallAt = issue + uint64(exposed)
			}
		}
		if apply {
			slot := (ins + uint64(rec.DepDist)) % StallRingSize
			if stallAt > stall[slot] {
				stall[slot] = stallAt
			}
		}
	}
	// Retire in order.
	if completion < r {
		completion = r
	}
	ring[ri] = completion
	ri++
	if ri == rob {
		ri = 0
	}
	c.dispatchCycle, c.slotsUsed, c.lastRetire = d, u, completion
	c.robIdx, c.instr = ri, ins+1
}

// CtxCheckInterval is how many records the run loops execute between
// context polls. Powers of two keep the check a single mask-and-branch;
// at a few hundred ns per record, 4096 records bounds cancellation
// latency to roughly a millisecond without measurable overhead in the
// hot loop.
const CtxCheckInterval = 4096

// Run consumes the trace to EOF (or maxRecords, if nonzero) and returns
// the result. Errors other than io.EOF from the reader are returned.
// Readers that implement trace.InPlaceReader (the synthetic generator
// does) are driven through NextInto, saving a record copy and the
// interface dispatch per record.
//
// The context is polled every CtxCheckInterval records: a cancelled or
// expired ctx stops the run promptly and returns ctx.Err() (wrapped
// results so far are still valid partial state via c.Result()). A nil
// ctx runs to completion.
func (c *Core) Run(ctx context.Context, r trace.Reader, maxRecords uint64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var n uint64
	var rec trace.Record
	if ir, ok := r.(trace.InPlaceReader); ok {
		for maxRecords == 0 || n < maxRecords {
			if n&(CtxCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return c.Result(), err
				}
			}
			if err := ir.NextInto(&rec); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return c.Result(), err
			}
			c.step(&rec)
			n++
		}
		return c.Result(), nil
	}
	for maxRecords == 0 || n < maxRecords {
		if n&(CtxCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return c.Result(), err
			}
		}
		var err error
		rec, err = r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return c.Result(), err
		}
		c.step(&rec)
		n++
	}
	return c.Result(), nil
}

// StepPtr simulates one record, for callers that drive the core
// themselves: the multicore interleave and the fused sweep kernel
// (internal/sim). The core does not retain or mutate *rec (step obeys
// the MemSystem contract).
//
//sipt:hotpath
func (c *Core) StepPtr(rec *trace.Record) { c.step(rec) }
