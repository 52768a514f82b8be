// Structure-of-arrays fused-sweep kernel.
//
// RunConfigs drives N independent single-core systems over one decoded
// trace. Each lane is a cpu.Core over a Hierarchy, like a solo run, but
// all lanes' state is carved from contiguous same-field slabs indexed
// by config lane: cache line metadata and MRU way-predictor state
// (cache.Arena), perceptron weight tables ([]predictor.Perceptron),
// hierarchy/engine/stats headers ([]Hierarchy, []core.L1, ...), the
// cores themselves ([]cpu.Core) and their timing rings (one retire-ring
// slab, one stall-ring slab, one chase-chain slab with fixed per-lane
// strides).
//
// The sweep runs lane-major: each lane makes one whole-trace pass,
// decoding records inline from the buffer's packed words and stepping
// its core, so the lane's slab segment stays hot in the host cache for
// the entire pass. cpu.Core is the only core timing model; the kernel
// adds no timing of its own.
//
// Lane-major order is bit-identical to the old record-major interleave
// because fused lanes share no timed state: each lane owns its L1 port,
// L2, LLC, DRAM and energy account (they model independent single-core
// systems), so its state evolution depends only on the record stream
// and its own configuration. internal/exp's fused_test and the golden
// tables gate this equivalence, as does TestRunConfigsMatchesSoloRuns.
//
// What the lanes do share is the timing-independent front half of
// Hierarchy.Access. Lanes are grouped by their full L1 engine
// configuration; a group's first lane simulates the L1 and records one
// packed event per record (frontTap), the group's other lanes replay
// those events (frontReplay, their cores' memory system), and lane 0's
// TLB serves the whole batch (DESIGN.md §14, "Shared front end").
package sim

import (
	"context"
	"fmt"
	"sync"

	"sipt/internal/cache"
	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/dram"
	"sipt/internal/energy"
	"sipt/internal/memaddr"
	"sipt/internal/predictor"
	"sipt/internal/replay"
	"sipt/internal/tlb"
	"sipt/internal/trace"
)

// A front event packs one record's front-half outcome into 16 bits:
//
//	bits  0-9   latency: L1 pipeline latency plus the TLB penalty
//	bits 10-11  L1 array slots (1..3)
//	bit  12     L1 hit
//	bit  13     dirty victim (its address is the log's next victim)
//	bits 14-15  TLB outcome class (tlbL1Hit, tlbL2Hit, tlbWalk)
const (
	evLatBits   = 10
	evLatMax    = 1<<evLatBits - 1
	evSlotShift = evLatBits
	evSlotMax   = 3
	evHit       = 1 << 12
	evDirty     = 1 << 13
	evTLBShift  = 14
)

// TLB outcome classes; frontTap.pen maps each to its penalty.
const (
	tlbL1Hit = iota
	tlbL2Hit
	tlbWalk
)

// checkEventFits reports an error when an L1 built from l1 over a TLB
// configured as t could produce a front-half outcome the event fields
// cannot hold. The worst latency is the slow path (translation wait
// plus the array read), a way-mispredicted second array pass, and a
// full TLB walk; the most array slots are the demand read, a wasted
// speculative read and the way-mispredicted pass.
func checkEventFits(l1 core.Config, t tlb.Config) error {
	hit := l1.Cache.LatencyCycles
	worst := l1.TLBLatency + hit + hit + t.L2Latency + t.WalkLatency
	if worst > evLatMax {
		return fmt.Errorf("worst-case front-end latency %d cycles exceeds the shared front end's %d-cycle event field",
			worst, evLatMax)
	}
	slots := 2
	if l1.WayPrediction {
		slots++
	}
	if slots > evSlotMax {
		return fmt.Errorf("%d array slots per access exceed the shared front end's limit of %d", slots, evSlotMax)
	}
	return nil
}

// frontLog is the event stream one front-end lane records for the lanes
// that replay it: one event per record, and the dirty-victim addresses
// in order. Both slices are sized to the trace before the pass, so the
// record loop only stores into them. A trace has at most as many dirty
// victims as stores: a line leaves dirty only if a store dirtied it
// after its fill, and each store lands in one such residency.
type frontLog struct {
	ev      []uint16
	victims []memaddr.PAddr
	nv      int // victims recorded
}

// logPool recycles front logs across sweeps: a Fig. 18 pass makes 120
// two-lane calls, each needing one trace-sized log. Every slot a replay
// reads was written earlier in the same sweep, so a recycled log's old
// contents are never observed.
var logPool sync.Pool

// getLog returns a log with room for the events of records records and
// the victims of stores stores.
func getLog(records, stores int) *frontLog {
	if l, ok := logPool.Get().(*frontLog); ok && cap(l.ev) >= records && cap(l.victims) >= stores {
		l.ev, l.victims, l.nv = l.ev[:records], l.victims[:stores], 0
		return l
	}
	return &frontLog{ev: make([]uint16, records), victims: make([]memaddr.PAddr, stores)}
}

// soaSweep is the slab-backed machine state of one fused sweep. Slices
// are lane-indexed unless noted; the ring/stall/chain slabs hold every
// lane's segment back to back.
type soaSweep struct {
	cfgs []Config

	hs        []Hierarchy
	llcs      []sharedLLC
	l1s       []core.L1 // one per front-end group, in group order
	tlb       tlb.TLB   // lane 0's, shared by the batch
	drams     []dram.DRAM
	accts     []energy.Account
	l1Caches  []cache.Cache // one per front-end group
	llcCaches []cache.Cache
	l2s       []cache.Cache // one per three-level lane, in lane order

	// Shared front end: lead[i] is the first lane of lane i's group
	// (i itself for a group's leader); logs[i] is the log lane i records
	// (nil unless another lane reads it); taps[i] is leader i's
	// frontTap, when it needs one.
	lead []int
	logs []*frontLog
	taps []frontTap

	// Shared front end, follower side: replays[i] is follower lane i's
	// memory system (unused for leaders).
	replays []frontReplay

	// cores[i] is lane i's timing model. Its rings live in slabs: lane
	// i's retire ring is a cfgs[i].Core.ROB-long segment of one slab,
	// its stall ring is one element of another, and its chase table is
	// a fixed-stride segment of a third.
	cores []cpu.Core
}

// newSoaSweep builds every lane's machinery over shared slabs for the
// trace buf. It polls ctx per lane (construction is the expensive part
// of huge sweeps) and validates each config, like the AoS path did.
func newSoaSweep(ctx context.Context, cfgs []Config, seed int64, buf *replay.Buffer) (*soaSweep, error) {
	n := len(cfgs)
	s := &soaSweep{cfgs: cfgs, lead: make([]int, n), logs: make([]*frontLog, n), taps: make([]frontTap, n)}
	tcfg := tlb.Default()
	pen := [4]int{tlbL2Hit: tcfg.L2Latency, tlbWalk: tcfg.L2Latency + tcfg.WalkLatency}

	// First pass: validate, group lanes by L1 engine configuration (in
	// lane order, so the leaders and the slab layout are deterministic),
	// size the slabs.
	l1Cfgs := make([]core.Config, n)
	var leaders []int
	followed := make([]bool, n)
	arenaCfgs := make([]cache.Config, 0, 3*n)
	nL2, nPerc, ringLen := 0, 0, 0
	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		l1Cfgs[i] = cfg.l1Config(seed)
		s.lead[i] = leaderOf(l1Cfgs, leaders, i)
		if l := s.lead[i]; l != i {
			followed[l] = true
		} else {
			leaders = append(leaders, i)
			arenaCfgs = append(arenaCfgs, l1Cfgs[i].Cache)
			if core.NeedsBypass(cfg.Mode) {
				nPerc++
			}
		}
		if cfg.threeLevel() {
			arenaCfgs = append(arenaCfgs, l2Config())
			nL2++
		}
		arenaCfgs = append(arenaCfgs, cfg.llcConfig())
		ringLen += cfg.Core.ROB
	}

	arena := cache.NewArena(arenaCfgs...)
	percs := make([]predictor.Perceptron, nPerc)
	s.hs = make([]Hierarchy, n)
	s.llcs = make([]sharedLLC, n)
	s.l1s = make([]core.L1, len(leaders))
	s.drams = make([]dram.DRAM, n)
	s.accts = make([]energy.Account, n)
	s.l1Caches = make([]cache.Cache, len(leaders))
	s.llcCaches = make([]cache.Cache, n)
	s.l2s = make([]cache.Cache, nL2)
	s.replays = make([]frontReplay, n)
	s.cores = make([]cpu.Core, n)
	ring := make([]uint64, ringLen)
	stall := make([][cpu.StallRingSize]uint64, n)
	chain := make([]uint64, n*cpu.ChainDenseSlots)
	s.tlb = *tlb.New(tcfg)

	// Second pass: carve, in lane order. A follower's hierarchy points
	// at its leader's L1 and, like every lane, at the batch's TLB, so
	// collect reads the shared counters through it.
	group := make([]int, n) // lane -> its group's index in l1s
	stores := -1            // buf's store count, counted when a log first needs it
	gi, l2i, pi, ro := 0, 0, 0, 0
	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			s.release()
			return nil, err
		}
		if l := s.lead[i]; l != i {
			group[i] = group[l]
		} else {
			// A leader records when its group has followers; lane 0 also
			// records when later groups read its TLB outcomes.
			if followed[i] || (i == 0 && len(leaders) > 1) {
				if err := checkEventFits(l1Cfgs[i], tcfg); err != nil {
					s.release()
					return nil, fmt.Errorf("sim: %s: %w", cfg.Label(), err)
				}
				if stores < 0 {
					stores = countStores(buf)
				}
				s.logs[i] = getLog(buf.Len(), stores)
			}
			group[i] = gi
			arena.Init(&s.l1Caches[gi], l1Cfgs[i].Cache)
			var bypass *predictor.Perceptron
			if core.NeedsBypass(cfg.Mode) {
				bypass = percs[pi].Init()
				pi++
			}
			var idb *predictor.IDB
			if specBits := l1Cfgs[i].Cache.SpecBits(); core.NeedsIDB(cfg.Mode, specBits) {
				idb = predictor.NewIDB(specBits, cfg.NoContig, seed)
			}
			s.l1s[gi].InitOver(l1Cfgs[i], &s.l1Caches[gi], bypass, idb)
			gi++
		}
		var l2 *cache.Cache
		if cfg.threeLevel() {
			l2 = arena.Init(&s.l2s[l2i], l2Config())
			l2i++
		}
		arena.Init(&s.llcCaches[i], cfg.llcConfig())
		s.llcs[i] = sharedLLC{cache: &s.llcCaches[i], bankBusy: 4}

		s.drams[i] = *dram.New(dramConfig())
		s.accts[i] = *energy.New(cfg.energyParams())
		s.hs[i] = Hierarchy{
			cfg:    cfg,
			l1:     &s.l1s[group[i]],
			tlb:    &s.tlb,
			l2:     l2,
			llc:    &s.llcs[i],
			mem:    &s.drams[i],
			acct:   &s.accts[i],
			predOn: core.NeedsBypass(cfg.Mode),
		}
		if s.lead[i] == i && (s.logs[i] != nil || i > 0) {
			// Leaders of later groups read lane 0's TLB outcomes.
			s.taps[i] = frontTap{out: s.logs[i], pen: pen}
			if i > 0 {
				s.taps[i].tlbLog = s.logs[0]
			}
			s.hs[i].tap = &s.taps[i]
		}
		var mem cpu.MemSystem = &s.hs[i]
		if l := s.lead[i]; l != i {
			// The leader has a lower lane index, so its log exists.
			s.replays[i] = frontReplay{h: &s.hs[i], log: s.logs[l]}
			mem = &s.replays[i]
		}
		s.cores[i].Init(cfg.Core, mem, ring[ro:ro+cfg.Core.ROB], &stall[i],
			chain[i*cpu.ChainDenseSlots:(i+1)*cpu.ChainDenseSlots])
		ro += cfg.Core.ROB
	}
	return s, nil
}

// countStores returns the number of store records in buf: the bound on
// a front log's dirty victims.
func countStores(buf *replay.Buffer) int {
	words := buf.Words()
	var rec trace.Record
	n := 0
	for w := 0; w+1 < len(words); w += 2 {
		replay.UnpackRecord(words[w], words[w+1], &rec)
		if rec.IsStore() {
			n++
		}
	}
	return n
}

// leaderOf returns the first of leaders whose L1 configuration equals
// lane's, or lane itself when none does: it starts a new group.
func leaderOf(l1Cfgs []core.Config, leaders []int, lane int) int {
	for _, l := range leaders {
		if l1Cfgs[l] == l1Cfgs[lane] {
			return l
		}
	}
	return lane
}

// release returns the sweep's front logs to the pool.
func (s *soaSweep) release() {
	for i, l := range s.logs {
		if l != nil {
			logPool.Put(l)
			s.logs[i] = nil
		}
	}
}

// frontTap is a leading lane's connection to its shared front end.
// Hierarchy.Access calls it in place of the TLB step: it takes the TLB
// penalty from the batch's TLB (lane 0) or from lane 0's log (leaders
// of later groups), and records the access's front-half outcome when
// other lanes replay it.
type frontTap struct {
	out    *frontLog // the log this lane records; nil if unread
	tlbLog *frontLog // lane 0's log, for leaders of later groups
	pen    [4]int    // TLB penalty by class
	k      int       // record index: the next event
}

// front returns the TLB penalty for rec, whose L1 outcome is r (victim
// is the dirty victim its fill evicted, if dirty), and records the
// event.
//
//sipt:hotpath
func (t *frontTap) front(tl *tlb.TLB, rec *trace.Record, r *core.Result, victim memaddr.PAddr, dirty bool) int {
	var class uint16
	var penalty int
	if t.tlbLog != nil {
		class = t.tlbLog.ev[t.k] >> evTLBShift
		penalty = t.pen[class]
	} else {
		tr := tl.Translate(rec.VA, rec.Huge())
		penalty = tr.Penalty
		if tr.Walk {
			class = tlbWalk
		} else if !tr.L1Hit {
			class = tlbL2Hit
		}
	}
	if out := t.out; out != nil {
		e := uint16(r.Latency+penalty) | uint16(r.ArraySlots)<<evSlotShift | class<<evTLBShift
		if r.Hit {
			e |= evHit
		}
		if dirty {
			e |= evDirty
			out.victims[out.nv] = victim
			out.nv++
		}
		out.ev[t.k] = e
	}
	t.k++
	return penalty
}

// frontReplay is a following lane's memory system: a cursor over its
// leader's log plus the lane's own hierarchy, which runs the timed back
// half of every access.
type frontReplay struct {
	h   *Hierarchy
	log *frontLog
	k   int // next event
	vi  int // next victim
}

// Access implements cpu.MemSystem: the back half of Hierarchy.Access
// for the next record on the lane's hierarchy at cycle now, with the
// front half's outcome decoded from the log. A follower runs after its
// leader (lanes run in lane order), so the log it reads is complete.
//
//sipt:hotpath
func (p *frontReplay) Access(rec *trace.Record, now uint64) cpu.MemResult {
	e := p.log.ev[p.k]
	p.k++
	h := p.h
	lat := h.port(now, int(e>>evSlotShift)&evSlotMax) + int(e&evLatMax)
	if e&evHit == 0 {
		var victim memaddr.PAddr
		dirty := e&evDirty != 0
		if dirty {
			victim = p.log.victims[p.vi]
			p.vi++
		}
		lat += h.missPath(rec.PA, now+uint64(lat), victim, dirty)
	}
	return cpu.MemResult{Latency: lat}
}

// runLane makes one lane's whole-trace pass: records decoded inline
// from the packed words, each stepped through the lane's core.
//
//sipt:hotpath
func (s *soaSweep) runLane(ctx context.Context, lane int, words []uint64) error {
	c := &s.cores[lane]
	var rec trace.Record
	var n uint64
	for w := 0; w+1 < len(words); w += 2 {
		if n&(cpu.CtxCheckInterval-1) == 0 {
			// Raw ctx.Err(), wrapped by RunConfigs outside the hot path.
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n++
		replay.UnpackRecord(words[w], words[w+1], &rec)
		c.StepPtr(&rec)
	}
	return nil
}
