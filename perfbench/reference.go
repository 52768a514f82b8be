package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sipt/internal/report"
)

// referenceJSON holds, per workload and seed, the SHA-256 of the JSON
// encoding of the tables one pass produces. A pass whose digest differs
// changed the simulator's output and fails the run. Regenerate with
// -record-reference only for a change meant to alter results.
//
//go:embed testdata/reference.json
var referenceJSON []byte

func loadReference() map[string]map[string]string {
	ref := map[string]map[string]string{}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic(fmt.Sprintf("perfbench: embedded reference.json: %v", err)) // fixed at build time
	}
	return ref
}

// referenceDigest returns the stored digest for a workload and seed.
// Without one, a run can check only that its passes agree, which
// catches nondeterminism but not a deterministic change in output, so
// it says so on standard error.
func referenceDigest(workloadName string, seed int64) (string, bool) {
	d, ok := loadReference()[workloadName][strconv.FormatInt(seed, 10)]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: no reference digest for %s seed %d in testdata/reference.json: "+
			"output is checked only for agreement between passes\n", workloadName, seed)
	}
	return d, ok
}

func digestTables(tables []*report.Table) string {
	blob, err := json.Marshal(tables)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// checkPassTables compares two passes' tables with each other and with
// the stored reference.
func checkPassTables(e env, rep *runReport, workloadName string, a, b []*report.Table) {
	da, db := digestTables(a), digestTables(b)
	if da != db {
		rep.fail("%s passes disagree: %s vs %s", workloadName, da, db)
	}
	if ref, ok := referenceDigest(workloadName, e.seed); ok && da != ref {
		rep.fail("%s tables digest %s, reference for seed %d is %s", workloadName, da, e.seed, ref)
	}
}

// recordReference computes one pass per seed in span ("FROM-TO") and
// merges the digests into testdata/reference.json under root.
func recordReference(workloadName, span, root string) error {
	path := filepath.Join(root, "perfbench", "testdata", "reference.json")
	lo, hi, ok := strings.Cut(span, "-")
	if !ok {
		hi = lo
	}
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || to < from {
		return fmt.Errorf("bad seed range %q (want FROM-TO)", span)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ref := map[string]map[string]string{}
	if err := json.Unmarshal(onDisk, &ref); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if ref[workloadName] == nil {
		ref[workloadName] = map[string]string{}
	}
	for seed := from; seed <= to; seed++ {
		var p pass
		var err error
		switch workloadName {
		case "sweep":
			p, err = runPass(sweepRunner(seed), "fig18", 0, lanesPerSweepPass)
		case "mix":
			p, err = runPass(mixRunner(seed, mixRecords), "fig15", 0, 0)
		default:
			return fmt.Errorf("no reference tables for workload %q", workloadName)
		}
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		ref[workloadName][strconv.FormatInt(seed, 10)] = digestTables(p.tables)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d recorded\n", workloadName, seed)
	}
	blob, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
