package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// byteCost prices a value by its length, the way exp prices
// materialised traces by their buffer bytes.
func byteCost(b []byte) int64 { return int64(len(b)) }

// TestByteCostSingleflight asserts concurrent Dos of one key share a
// single compute under a byte cost function.
func TestByteCostSingleflight(t *testing.T) {
	c := New(1<<30, 0, byteCost)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := c.Do("x", func() ([]byte, error) {
				calls.Add(1)
				return make([]byte, 1600), nil
			})
			if err != nil || len(b) != 1600 {
				t.Errorf("Do: %v (len %d)", err, len(b))
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("computed %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 31 {
		t.Fatalf("stats = %+v, want 1 miss / 31 hits", st)
	}
	if st.Entries != 1 || st.Cost != 1600 {
		t.Fatalf("stats = %+v, want 1 entry costing 1600", st)
	}
}

// TestByteCostErrorsNotCached asserts a failed compute is retried and
// never charged to the budget.
func TestByteCostErrorsNotCached(t *testing.T) {
	c := New(1<<30, 0, byteCost)
	boom := errors.New("boom")
	calls := 0
	if _, err := c.Do("x", func() ([]byte, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Do: %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Cost != 0 {
		t.Fatalf("failed compute retained: %+v", st)
	}
	b, err := c.Do("x", func() ([]byte, error) { calls++; return make([]byte, 160), nil })
	if err != nil || len(b) != 160 {
		t.Fatalf("second Do: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (error retried)", calls)
	}
}

// TestByteBudget hammers a small byte-costed cache from many goroutines
// over a keyspace far larger than the budget and asserts the resident
// cost bound holds at every observation point — the bounded-memory
// contract the siptd daemon relies on for its trace pool under
// concurrent sweeps.
func TestByteBudget(t *testing.T) {
	const (
		valBytes = 4 << 10  // one 256-record trace
		budget   = 64 << 10 // 8 KiB per shard
	)
	c := New(budget, 8, byteCost)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("app-%d|%d", (g*31+i)%97, i%5)
				b, err := c.Do(key, func() ([]byte, error) { return make([]byte, valBytes), nil })
				if err != nil || len(b) != valBytes {
					t.Errorf("Do: %v", err)
					return
				}
				if st := c.Stats(); st.Cost > budget {
					t.Errorf("resident cost %d exceeds budget %d", st.Cost, budget)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Cost > budget {
		t.Fatalf("final resident cost %d exceeds budget %d", st.Cost, budget)
	}
	if st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("expected residency and evictions under pressure, got %+v", st)
	}
}

// TestOversizedValueNotRetained asserts a value costing more than a
// shard's budget is returned to the caller, not kept, and counted,
// without displacing what is resident.
func TestOversizedValueNotRetained(t *testing.T) {
	c := New(1<<10, 1, byteCost)
	if _, err := c.Do("small", func() ([]byte, error) { return make([]byte, 100), nil }); err != nil {
		t.Fatal(err)
	}
	b, err := c.Do("big", func() ([]byte, error) { return make([]byte, 16<<10), nil })
	if err != nil || len(b) != 16<<10 {
		t.Fatalf("Do: %v", err)
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized value retained")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Cost != 100 || st.Evictions != 0 {
		t.Fatalf("oversized value disturbed residency: %+v", st)
	}
	if st.Oversize != 1 {
		t.Fatalf("oversize drop not counted: %+v", st)
	}
	// A second oversize value counts again; a normal-sized one does not.
	if _, err := c.Do("big2", func() ([]byte, error) { return make([]byte, 2<<10), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("small2", func() ([]byte, error) { return make([]byte, 100), nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Oversize != 2 {
		t.Fatalf("Oversize = %d, want 2", st.Oversize)
	}
}

// fuzzVal is FuzzCache's value: which compute produced it and what it
// costs.
type fuzzVal struct {
	key    string
	serial int
	cost   int64
}

// fuzzModel is what FuzzCache knows independently of the cache: which
// computes succeeded for which key, which keys are mid-compute, and
// the call and oversize counts.
type fuzzModel struct {
	t        *testing.T
	c        *Cache[fuzzVal]
	capacity int64
	results  map[int]string // serial of each successful compute -> its key
	inflight map[string]bool
	serial   int
	dos      uint64
	oversize uint64
}

var errFuzz = errors.New("fuzz: compute failed")

// FuzzCache interprets its input as a program over Do and Get: random
// keys, costs (some beyond a shard's budget), failing computes, computes
// that run the next few instructions while their own entry is in
// flight, and shard counts. After every call it checks that resident
// cost stays within the budget, that Stats().Entries counts exactly the
// finished entries, that every value handed out is its own compute's
// result, and that no error is retained.
func FuzzCache(f *testing.F) {
	f.Add([]byte{2, 40, 0, 1, 5, 0, 2, 9, 2, 1, 0, 3, 4, 7, 1, 1, 60, 0, 5, 30})
	f.Add([]byte{0, 0, 3, 0, 4, 3, 1, 20, 0, 2, 2, 2, 0, 0, 0, 3, 3, 3})
	f.Add([]byte{7, 63, 0, 0, 23, 0, 1, 23, 0, 2, 23, 0, 3, 23, 2, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 7, 0, 0, 2, 0, 1, 2, 3, 2, 7, 0, 3, 3, 0, 4, 3, 0, 5, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		capacity := int64(prog[1]%64) + 1
		m := &fuzzModel{
			t:        t,
			c:        New(capacity, int(prog[0]%8)+1, func(v fuzzVal) int64 { return v.cost }),
			capacity: capacity,
			results:  make(map[int]string),
			inflight: make(map[string]bool),
		}
		m.run(prog[2:], -1)
	})
}

// run executes up to n instructions of three bytes each (all of them
// when n is negative) and returns the rest of the program. An
// instruction's op selects Do, failing Do, Get, or a Do whose compute
// runs the next arg%4+1 instructions nested; k picks the key and arg
// the cost.
func (m *fuzzModel) run(ops []byte, n int) []byte {
	for ; n != 0 && len(ops) >= 3; n-- {
		op, key, arg := ops[0], fmt.Sprintf("k%d", ops[1]%16), ops[2]
		ops = ops[3:]
		cost := int64(arg % 24)
		switch op % 4 {
		case 0:
			m.do(key, cost, false, nil)
		case 1:
			m.do(key, cost, true, nil)
		case 2:
			v, ok := m.c.Get(key)
			if ok && (m.inflight[key] || v.key != key || m.results[v.serial] != key) {
				m.t.Fatalf("Get(%s) = %+v (in flight %v)", key, v, m.inflight[key])
			}
		case 3:
			m.do(key, cost, false, func() { ops = m.run(ops, int(arg%4)+1) })
		}
		m.check()
	}
	return ops
}

// do calls Do for key and checks what comes back. A key whose compute
// is on the stack is skipped: joining its own flight would deadlock.
func (m *fuzzModel) do(key string, cost int64, fail bool, nested func()) {
	if m.inflight[key] {
		return
	}
	serial := m.serial
	m.serial++
	m.dos++
	ran := false
	v, err := m.c.Do(key, func() (fuzzVal, error) {
		ran = true
		m.inflight[key] = true
		if nested != nil {
			nested()
		}
		delete(m.inflight, key)
		if fail {
			return fuzzVal{}, errFuzz
		}
		m.results[serial] = key
		return fuzzVal{key, serial, cost}, nil
	})
	switch {
	case ran && fail:
		if !errors.Is(err, errFuzz) {
			m.t.Fatalf("failing compute of %s returned %+v, %v", key, v, err)
		}
	case ran:
		if err != nil || v != (fuzzVal{key, serial, cost}) {
			m.t.Fatalf("compute of %s returned %+v, %v; want serial %d cost %d", key, v, err, serial, cost)
		}
		if cost > m.c.shardFor(key).budget {
			m.oversize++
		}
	default:
		if err != nil || v.key != key || m.results[v.serial] != key {
			m.t.Fatalf("cached Do(%s) = %+v, %v: not a successful compute of the key", key, v, err)
		}
	}
}

// check asserts the cache's invariants by walking every shard.
func (m *fuzzModel) check() {
	st := m.c.Stats()
	if st.Cost > m.capacity {
		m.t.Fatalf("resident cost %d exceeds capacity %d", st.Cost, m.capacity)
	}
	finished := 0
	var cost int64
	for i := range m.c.shards {
		s := &m.c.shards[i]
		s.mu.Lock()
		if s.cost > s.budget {
			m.t.Fatalf("shard %d cost %d exceeds its budget %d", i, s.cost, s.budget)
		}
		if len(s.items) != s.order.Len() {
			m.t.Fatalf("shard %d map holds %d keys, list %d", i, len(s.items), s.order.Len())
		}
		for el := s.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[fuzzVal])
			if m.inflight[e.key] {
				if e.resident {
					m.t.Fatalf("in-flight %s is resident", e.key)
				}
				continue
			}
			if e.err != nil || !e.resident {
				m.t.Fatalf("finished %s retained with err %v, resident %v", e.key, e.err, e.resident)
			}
			if m.results[e.val.serial] != e.key {
				m.t.Fatalf("%s holds %+v, not one of its computes", e.key, e.val)
			}
			finished++
			cost += e.val.cost
		}
		s.mu.Unlock()
	}
	if st.Entries != finished || st.Cost != cost {
		m.t.Fatalf("stats %+v; shards hold %d finished entries costing %d", st, finished, cost)
	}
	if st.Hits+st.Misses != m.dos || st.Oversize != m.oversize {
		m.t.Fatalf("stats %+v after %d Dos and %d oversize values", st, m.dos, m.oversize)
	}
}
