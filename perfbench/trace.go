package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Units is the work the call processed (records, bytes); 0 if none.
	Units int64 `json:"units,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so one code path serves
// both the timed runs and the traced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, crediting it with units of work.
func (t *tracer) end(id int, units int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Units = units
}

// spanStats aggregates every span of one name.
type spanStats struct {
	Count  int
	Total  time.Duration
	Units  int64
	Millis []float64 // each span's duration, for percentiles
}

// summary aggregates the spans by name.
func (t *tracer) summary() map[string]*spanStats {
	out := map[string]*spanStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Units += s.Units
		st.Millis = append(st.Millis, float64(d)/1e6)
	}
	return out
}

// noteSpans prints each span name's call count, median and total: the
// per-layer breakdown as the benchmark's calls saw it.
func noteSpans(rep *runReport, t *tracer) {
	sum := t.summary()
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := sum[n]
		rep.note("span "+n, median(st.Millis), "ms", "median of %d calls; total %.1f ms; %d units",
			st.Count, float64(st.Total)/1e6, st.Units)
	}
}

// save writes the spans as JSON.
func (t *tracer) save(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// cpuWindow is a CPU profile plus the GC share of CPU time over
// one stretch of the benchmark process's own work.
type cpuWindow struct {
	prof       *os.File
	gc0, busy0 float64
}

func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func allocCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// startCPU starts a CPU profile written to a new file in dir.
func startCPU(dir string) (*cpuWindow, error) {
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	w := &cpuWindow{prof: f}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	w.gc0, w.busy0 = cpuClasses()
	return w, nil
}

// profileResult is what a cpuWindow measured.
type profileResult struct {
	pkgs    map[string]int64
	samples int64
	gcPct   float64
	busyCPU float64 // CPU-seconds the process was not idle
}

func (w *cpuWindow) stop() (profileResult, error) {
	pprof.StopCPUProfile()
	gc, busy := cpuClasses()
	if err := w.prof.Close(); err != nil {
		return profileResult{}, err
	}
	leaf, err := leafSamples(w.prof.Name())
	if err != nil {
		return profileResult{}, err
	}
	pkgs, total := foldByPackage(leaf)
	return profileResult{
		pkgs: pkgs, samples: total,
		gcPct:   100 * ratio(gc-w.gc0, busy-w.busy0),
		busyCPU: busy - w.busy0,
	}, nil
}

// layerPackages are the simulator's modules whose self-time share the
// traced run reports (the last element of each internal package path).
var layerPackages = []string{"workload", "vm", "cpu", "cache", "core", "tlb", "predictor", "dram", "energy", "sim", "exp"}

// addProfile reports each layer package's share of the profile's
// samples, and the GC share of busy CPU time.
func addProfile(rep *runReport, p profileResult, what string) {
	for _, pkg := range layerPackages {
		rep.add(pkg+".self_pct", 100*ratio(float64(p.pkgs[pkg]), float64(p.samples)), "%",
			"%d of %d CPU profile samples (%s)", p.pkgs[pkg], p.samples, what)
	}
	rep.add("runtime.gc_pct", p.gcPct, "%", "GC CPU over %.2f busy CPU-seconds (%s)", p.busyCPU, what)
	listed := map[string]bool{}
	for _, pkg := range layerPackages {
		listed[pkg] = true
	}
	var rest []string
	for pkg := range p.pkgs {
		if !listed[pkg] {
			rest = append(rest, pkg)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return p.pkgs[rest[i]] > p.pkgs[rest[j]] })
	for _, pkg := range rest {
		rep.note(pkg+".self_pct", 100*ratio(float64(p.pkgs[pkg]), float64(p.samples)), "%",
			"%d of %d CPU profile samples (%s)", p.pkgs[pkg], p.samples, what)
	}
}
