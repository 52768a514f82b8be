package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, got, c.n-rank(got, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"sipt/internal/cache.(*Cache).Access":                          "cache",
		"sipt/internal/sim.(*soaSweep).runLane":                        "sim",
		"runtime.mallocgc":                                             "runtime",
		"sipt/internal/exp.forEachApp[go.shape.struct { sipt/x.y }].1": "exp",
		"main.run":                "main",
		"math/rand.(*Rand).Int63": "rand",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// tracesOutput is `go tool pprof -traces -sample_index=samples` output
// in the toolchain's format: a header, then per sample a separator,
// labels, and the stack leaf first with the count on the leaf line.
const tracesOutput = `File: perfbench
Type: samples
Duration: 1.20s, Total samples = 15
-----------+-------------------------------------------------------
         5   sipt/internal/cache.(*Cache).Access (inline)
             sipt/internal/sim.(*soaSweep).runLane
-----------+-------------------------------------------------------
         3   sipt/internal/sim.(*soaSweep).runLane
             sipt/internal/exp.forEachApp[go.shape.struct { sipt/x.y }].1
-----------+-------------------------------------------------------
      phase:  timed
         2   runtime.mallocgc
             sipt/internal/sim.(*soaSweep).runLane
-----------+-------------------------------------------------------
         1   sipt/internal/tlb.(*TLB).Lookup
-----------+-------------------------------------------------------
         4   sipt/internal/cache.(*Cache).Access
-----------+-------------------------------------------------------
`

func TestFoldProfileByPackage(t *testing.T) {
	leaf, err := parseTraces([]byte(tracesOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := leaf["sipt/internal/cache.(*Cache).Access"]; got != 9 {
		t.Errorf("cache.Access leaf samples = %d, want 9 (inline marker stripped)", got)
	}
	pkgs, total := foldByPackage(leaf)
	want := map[string]int64{"cache": 9, "sim": 3, "runtime": 2, "tlb": 1}
	if !reflect.DeepEqual(pkgs, want) || total != 15 {
		t.Errorf("folded %v (total %d), want %v (total 15)", pkgs, total, want)
	}
}

// spin keeps a CPU busy for d so a profile has samples in this package.
//
//go:noinline
func spin(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestLeafSamplesReadsARealProfile runs the toolchain's pprof on a
// profile this process writes, so a change in its output format shows.
func TestLeafSamplesReadsARealProfile(t *testing.T) {
	w, err := startCPU(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	p, err := w.stop()
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgOf(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if p.samples == 0 || p.pkgs[pkg] == 0 {
		t.Errorf("profile folded to %v (%d samples), want samples in package %s", p.pkgs, p.samples, pkg)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	const n, hot = 400, 8
	span := 4 * time.Second
	a, b := schedule(7, n, hot, span), schedule(7, n, hot, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, n, hot, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	counts := kindCounts(n)
	var got [numKinds]int
	seen := map[opKind]map[int]bool{}
	for i, op := range a {
		got[op.Kind]++
		if op.Due < 0 || op.Due >= span || (i > 0 && op.Due < a[i-1].Due) {
			t.Fatalf("op %d due %v: not sorted within [0, %v)", i, op.Due, span)
		}
		if op.Kind == opHot {
			if op.Index < 0 || op.Index >= hot {
				t.Fatalf("hot op %d repeats entry %d of %d", i, op.Index, hot)
			}
			continue
		}
		if seen[op.Kind] == nil {
			seen[op.Kind] = map[int]bool{}
		}
		if seen[op.Kind][op.Index] {
			t.Fatalf("%s input %d sent twice", op.Kind, op.Index)
		}
		seen[op.Kind][op.Index] = true
	}
	if got != counts {
		t.Errorf("kind counts %v, want %v", got, counts)
	}
	if counts[opFresh]+counts[opHot]+counts[opSweep]+counts[opUpload] != n {
		t.Errorf("kind counts %v do not sum to %d", counts, n)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metrics the program reports in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
}
