package tlb

import (
	"testing"

	"sipt/internal/memaddr"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.L1SmallEntries = 0 },
		func(c *Config) { c.L1Ways = 0 },
		func(c *Config) { c.L1SmallEntries = 60 }, // 15 sets: not pow2
		func(c *Config) { c.L2Entries = 0 },
		func(c *Config) { c.WalkLatency = -1 },
	}
	for i, mutate := range cases {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	tl := New(Default())
	va := memaddr.VAddr(0x7f0000001000)
	r := tl.Translate(va, false)
	if r.L1Hit || !r.Walk {
		t.Fatalf("cold lookup: %+v, want a walk", r)
	}
	wantPenalty := Default().L2Latency + Default().WalkLatency
	if r.Penalty != wantPenalty {
		t.Fatalf("cold penalty = %d, want %d", r.Penalty, wantPenalty)
	}
	r = tl.Translate(va, false)
	if !r.L1Hit || r.Walk || r.Penalty != 0 {
		t.Fatalf("warm lookup: %+v", r)
	}
	st := tl.Stats()
	if st.Lookups != 2 || st.Walks != 1 || st.L1Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSamePageSharesEntry(t *testing.T) {
	tl := New(Default())
	tl.Translate(0x1000, false)
	if r := tl.Translate(0x1fff, false); !r.L1Hit {
		t.Error("same-page offset missed")
	}
	if r := tl.Translate(0x2000, false); r.L1Hit {
		t.Error("next page hit without warmup")
	}
}

func TestHugePagesUseHugeArrayAndReach(t *testing.T) {
	tl := New(Default())
	base := memaddr.VAddr(0x7f0000000000)
	tl.Translate(base, true)
	// Anywhere in the same 2 MiB region must hit.
	if r := tl.Translate(base+memaddr.HugePageBytes-1, true); !r.L1Hit {
		t.Error("huge page reach broken")
	}
	if tl.Stats().HugeHits != 1 {
		t.Errorf("HugeHits = %d, want 1", tl.Stats().HugeHits)
	}
	// A 4 KiB lookup at the same address uses the small array: miss.
	if r := tl.Translate(base, false); r.L1Hit {
		t.Error("small lookup hit huge array")
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	cfg := Default()
	tl := New(cfg)
	// Touch enough distinct pages to overflow the 64-entry L1 but fit
	// in the 1024-entry L2.
	npages := cfg.L1SmallEntries * 4
	for i := 0; i < npages; i++ {
		tl.Translate(memaddr.VAddr(i)<<memaddr.PageShift, false)
	}
	// Revisit the early pages: they should be L2 hits, not walks.
	walksBefore := tl.Stats().Walks
	for i := 0; i < 8; i++ {
		r := tl.Translate(memaddr.VAddr(i)<<memaddr.PageShift, false)
		if r.L1Hit {
			continue // possible if still resident
		}
		if r.Penalty != cfg.L2Latency {
			t.Fatalf("page %d: penalty %d, want L2 hit (%d)", i, r.Penalty, cfg.L2Latency)
		}
	}
	if tl.Stats().Walks != walksBefore {
		t.Error("revisits caused page walks despite L2 capacity")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Small custom TLB: 4 entries, 4 ways -> one set, pure LRU.
	cfg := Default()
	cfg.L1SmallEntries = 4
	cfg.L1Ways = 4
	tl := New(cfg)
	for i := 0; i < 4; i++ {
		tl.Translate(memaddr.VAddr(i)<<memaddr.PageShift, false)
	}
	tl.Translate(0, false)                                   // refresh page 0
	tl.Translate(memaddr.VAddr(4)<<memaddr.PageShift, false) // evicts LRU = page 1
	if r := tl.Translate(0, false); !r.L1Hit {
		t.Error("refreshed page 0 evicted")
	}
	if r := tl.Translate(memaddr.VAddr(1)<<memaddr.PageShift, false); r.L1Hit {
		t.Error("LRU page 1 survived")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	cfg := Default()
	cfg.L2Ways = 0
	New(cfg)
}
