package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sipt/internal/exp"
	"sipt/internal/journal"
	"sipt/internal/report"
	"sipt/internal/serve"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// refServer is an in-process serve.Server over a fresh exp.Runner with
// siptd's options but no journal and no result store: the reference a
// daemon's answers must match byte for byte.
type refServer struct {
	srv    *serve.Server
	runner *exp.Runner
}

func newRefServer(dir string) (*refServer, error) {
	ts, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	runner := exp.NewRunner(exp.Options{Records: serveRecords, Seed: 1, Workers: workers()})
	srv := serve.New(serve.Config{Runner: runner, Workers: workers(), TraceStore: ts})
	return &refServer{srv: srv, runner: runner}, nil
}

func (rs *refServer) do(method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	rs.srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// tables runs one request to completion and returns its tables in
// canonical form.
func (rs *refServer) tables(path string, body, upload []byte) (string, error) {
	if upload != nil {
		if code, out := rs.do("POST", "/v1/traces", upload); code != http.StatusCreated && code != http.StatusOK {
			return "", fmt.Errorf("reference upload: status %d: %s", code, out)
		}
	}
	code, out := rs.do("POST", path, body)
	if code != http.StatusAccepted {
		return "", fmt.Errorf("reference %s: status %d: %s", path, code, out)
	}
	var v jobView
	if err := json.Unmarshal(out, &v); err != nil {
		return "", err
	}
	for deadline := time.Now().Add(jobTimeout); ; {
		code, out = rs.do("GET", "/v1/jobs/"+v.ID, nil)
		if code != http.StatusOK {
			return "", fmt.Errorf("reference job %s: status %d", v.ID, code)
		}
		if err := json.Unmarshal(out, &v); err != nil {
			return "", err
		}
		if v.terminal() {
			if v.Status != "done" {
				return "", fmt.Errorf("reference job %s: %s", v.Status, v.Error)
			}
			return canonicalTables(v.Tables)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("reference job %s timed out", v.ID)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// canonicalTables re-encodes a job's tables compactly, so responses
// that differ only in JSON whitespace compare equal and any other
// difference does not.
func canonicalTables(raw json.RawMessage) (string, error) {
	var ts []*report.Table
	if err := json.Unmarshal(raw, &ts); err != nil {
		return "", fmt.Errorf("decoding tables: %w", err)
	}
	if len(ts) == 0 {
		return "", fmt.Errorf("job returned no tables")
	}
	b, err := json.Marshal(ts)
	return string(b), err
}

// checkTarget is one distinct request whose daemon answers are
// compared with the reference.
type checkTarget struct {
	path   string
	body   []byte
	upload []byte
	got    []json.RawMessage
}

// checkTargets selects what to check: every hot-set result, and an
// evenly spaced sample of at most 100 each of the open loop's fresh
// runs, sweeps and uploads and 20 closed-loop fresh runs.
func checkTargets(in *serveInputs, open, closed []opResult) []*checkTarget {
	byKey := map[string]*checkTarget{}
	var order []*checkTarget
	add := func(r opResult) {
		if r.err != nil {
			return
		}
		key := r.path + string(r.body)
		t := byKey[key]
		if t == nil {
			t = &checkTarget{path: r.path, body: r.body}
			if r.op.Kind == opUpload {
				t.upload = in.uploads[r.op.Index]
			}
			byKey[key] = t
			order = append(order, t)
		}
		t.got = append(t.got, r.tables)
	}
	sample := func(rs []opResult, max int) {
		step := (len(rs) + max - 1) / max
		for i := 0; i < len(rs); i += step {
			add(rs[i])
		}
	}
	var byKind [numKinds][]opResult
	for _, r := range open {
		byKind[r.op.Kind] = append(byKind[r.op.Kind], r)
	}
	for _, r := range byKind[opHot] {
		add(r)
	}
	sample(byKind[opFresh], 100)
	sample(byKind[opSweep], 100)
	sample(byKind[opUpload], 100)
	sample(closed, 20)
	return order
}

// verify computes every target's reference on a fresh in-process
// server and counts mismatches as failed operations. It returns the
// reference runner (for its simulation count) and the wall time.
func verify(e env, rep *runReport, targets []*checkTarget, dir string) (*exp.Runner, time.Duration, error) {
	rs, err := newRefServer(dir)
	if err != nil {
		return nil, 0, err
	}
	defer rs.srv.Close()
	want := make([]string, len(targets))
	t0 := time.Now()
	err = parallel(len(targets), func(i int) error {
		w, err := rs.tables(targets[i].path, targets[i].body, targets[i].upload)
		want[i] = w
		return err
	})
	took := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	for i, t := range targets {
		for _, got := range t.got {
			g, err := canonicalTables(got)
			if err != nil || g != want[i] {
				rep.fail("%s %s: daemon result differs from the in-process exp.Runner result", t.path, t.body)
			}
		}
	}
	return rs.runner, took, nil
}

// checkServeResults verifies the daemon's answers. A traced run also
// profiles the reference computation (the same simulations siptd ran,
// in this process) and calls the storage layers directly.
func checkServeResults(e env, rep *runReport, in *serveInputs, open, closed []opResult) error {
	targets := checkTargets(in, open, closed)
	var checked int
	for _, t := range targets {
		checked += len(t.got)
	}
	runner, plain, err := verify(e, rep, targets, filepath.Join(e.work, "ref-plain"))
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	rep.note("bench.checked_results", float64(checked), "count", "%d daemon results against %d in-process references (%d simulations)",
		checked, len(targets), runner.Simulations())
	if e.tr == nil {
		return nil
	}
	freshHeap()
	w, err := startCPU(e.work)
	if err != nil {
		return err
	}
	m0, b0 := allocCounters()
	sp := e.tr.begin("reference.verify")
	runner, traced, err := verify(e, rep, targets, filepath.Join(e.work, "ref-traced"))
	e.tr.end(sp, int64(len(targets)))
	m1, b1 := allocCounters()
	prof, perr := w.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	addProfile(rep, prof, "in-process re-execution of the checked requests")
	recs := float64(runner.Simulations() * serveRecords)
	rep.add("sim.allocs_per_krec", ratio(float64(m1-m0), recs/1000), "count",
		"%d allocations over %d simulations x %d records (in-process serve + exp.Runner)", m1-m0, runner.Simulations(), serveRecords)
	rep.add("sim.bytes_per_rec", ratio(float64(b1-b0), recs), "B",
		"%d bytes allocated over %d simulations x %d records", b1-b0, runner.Simulations(), serveRecords)
	rep.add("bench.trace_overhead_pct", 100*(traced.Seconds()/plain.Seconds()-1), "%",
		"profiled re-execution %.0f ms vs unprofiled %.0f ms", float64(traced)/1e6, float64(plain)/1e6)
	return directLayers(e, rep, in)
}

// directLayers calls sim.Materialize, journal, store and tracefile
// directly with inputs sized like the workload's own: fresh runs'
// traces, a fresh run's admission record, a result blob, and the
// upload files.
func directLayers(e env, rep *runReport, in *serveInputs) error {
	const n = 200
	for i := 0; i < len(in.fresh) && i < n; i++ {
		var req struct {
			App  string `json:"app"`
			Seed int64  `json:"seed"`
		}
		if err := json.Unmarshal(in.fresh[i], &req); err != nil {
			return err
		}
		prof, err := workload.Lookup(req.App)
		if err != nil {
			return err
		}
		sp := e.tr.begin("sim.Materialize")
		_, err = sim.Materialize(prof, vm.ScenarioNormal, req.Seed, serveRecords)
		e.tr.end(sp, serveRecords)
		if err != nil {
			return fmt.Errorf("materialising %s: %w", req.App, err)
		}
		rep.attempted++
	}
	jdir := filepath.Join(e.work, "layer-journal")
	jnl, err := journal.Open(jdir, 0)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		rec := journal.Record{Type: journal.TypeAdmitted, ID: fmt.Sprintf("job-%d", i+1), Seq: uint64(i + 1),
			Kind: "run", Request: in.fresh[i%len(in.fresh)]}
		sp := e.tr.begin("journal.Append(sync)")
		err := jnl.Append(rec, true)
		e.tr.end(sp, int64(len(rec.Request)))
		if err != nil {
			jnl.Close()
			return fmt.Errorf("journal append: %w", err)
		}
	}
	if err := jnl.Close(); err != nil {
		return err
	}

	st, err := store.Open(filepath.Join(e.work, "layer-store"), 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	resultBlob := make([]byte, medianFileSize(filepath.Join(e.work, "store", "results")))
	var keys []store.Key
	for i := 0; i < n; i++ {
		payload := resultBlob
		if i%2 == 1 {
			payload = in.uploads[i%len(in.uploads)]
		}
		rng.Read(resultBlob) //nolint:errcheck // math/rand's Read never fails
		k := store.KeyOfBytes(append([]byte(fmt.Sprint(i)), payload...))
		sp := e.tr.begin("store.Put")
		err := st.Put(k, payload)
		e.tr.end(sp, int64(len(payload)))
		if err != nil {
			return fmt.Errorf("store put: %w", err)
		}
		keys = append(keys, k)
	}
	for _, k := range keys {
		sp := e.tr.begin("store.Get")
		b, err := st.Get(k)
		e.tr.end(sp, int64(len(b)))
		if err != nil {
			return fmt.Errorf("store get: %w", err)
		}
	}
	for _, f := range in.uploads {
		sp := e.tr.begin("tracefile.ReadBuffer")
		meta, _, err := tracefile.ReadBuffer(bytes.NewReader(f))
		e.tr.end(sp, int64(meta.Records))
		if err != nil {
			return fmt.Errorf("decoding an upload: %w", err)
		}
	}
	rep.attempted += 3*n + int64(len(in.uploads))
	sum := e.tr.summary()
	mat := sum["sim.Materialize"]
	rep.add("workload.gen_ns_per_rec", ratio(float64(mat.Total), float64(mat.Units)), "ns/rec",
		"%d sim.Materialize calls on fresh runs' (app, seed), %d records", mat.Count, mat.Units)
	j, p, g, d := sum["journal.Append(sync)"], sum["store.Put"], sum["store.Get"], sum["tracefile.ReadBuffer"]
	rep.add("journal.append_sync_p50_ms", median(j.Millis), "ms", "median of %d journal.Append(admitted, sync) calls", j.Count)
	rep.add("store.put_p50_ms", median(p.Millis), "ms", "median of %d store.Put calls (%d result-sized, %d trace-sized; %d bytes)",
		p.Count, p.Count/2, p.Count-p.Count/2, p.Units)
	rep.add("store.get_p50_ms", median(g.Millis), "ms", "median of %d store.Get calls (%d bytes)", g.Count, g.Units)
	rep.add("tracefile.decode_ns_per_rec", ratio(float64(d.Total), float64(d.Units)), "ns/rec",
		"%d tracefile.ReadBuffer calls, %d records", d.Count, d.Units)
	return nil
}

// medianFileSize is the median size of the result blobs in dir: files
// under 64 KiB (the larger ones are persisted traces); 1 KiB if none.
func medianFileSize(dir string) int {
	ents, err := os.ReadDir(dir)
	var sizes []float64
	if err == nil {
		for _, de := range ents {
			if fi, err := de.Info(); err == nil && fi.Mode().IsRegular() && fi.Size() < 64<<10 {
				sizes = append(sizes, float64(fi.Size()))
			}
		}
	}
	sort.Float64s(sizes)
	if len(sizes) == 0 {
		return 1024
	}
	return int(median(sizes))
}
