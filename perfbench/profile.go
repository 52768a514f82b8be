package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// leafSamples reads the CPU profile at path with the toolchain's own
// reader, `go tool pprof -traces`, and sums the sample counts by each
// sample's leaf function (for inlined code, the inlined callee: self
// time belongs to the code that ran).
func leafSamples(path string) (map[string]int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(out)
}

// traceSeparator is the line pprof -traces prints before each sample.
const traceSeparator = "-----------+"

// parseTraces sums pprof -traces output by leaf function. After each
// separator come the sample's labels ("key:  value"), then its stack
// leaf first, the first frame preceded by the sample count.
func parseTraces(text []byte) (map[string]int64, error) {
	out := map[string]int64{}
	wantLeaf := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, traceSeparator) {
			wantLeaf = true
			continue
		}
		fields := strings.Fields(line)
		if !wantLeaf || len(fields) < 2 {
			continue
		}
		n, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			continue // a label line
		}
		out[strings.TrimSuffix(strings.Join(fields[1:], " "), " (inline)")] += n
		wantLeaf = false
	}
	return out, sc.Err()
}

// pkgOf returns the last element of a function's package path:
// "sipt/internal/cache.(*Cache).Access" -> "cache",
// "runtime.mallocgc" -> "runtime". Type parameters and receivers are
// cut first, since their text may itself contain package paths.
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// foldByPackage sums leaf sample counts per package and returns the
// buckets and the total.
func foldByPackage(leaf map[string]int64) (map[string]int64, int64) {
	out := map[string]int64{}
	var total int64
	for fn, n := range leaf {
		out[pkgOf(fn)] += n
		total += n
	}
	return out, total
}
