package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// host identifies where and on what a result was measured, so results
// from different machines or trees are never compared as if they were
// runs of one experiment.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the VCS revision the benchmark binary was built from,
	// or "none" when the tree is not a repository checkout.
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
	// Tree is a SHA-256 over every Go source and module file under the
	// root: it identifies the code under test even without a VCS.
	Tree string `json:"tree"`
	Seed int64  `json:"seed"`
}

func describeHost(root string, seed int64) host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "none",
		Tree:       treeDigest(root),
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest hashes the path and content of every .go, go.mod and
// go.sum file under root, skipping dot-directories (build output, VCS
// metadata).
func treeDigest(root string) string {
	hs := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		hs.Write([]byte(filepath.ToSlash(rel)))
		hs.Write([]byte{0})
		hs.Write(b)
		hs.Write([]byte{0})
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(hs.Sum(nil))[:16]
}

// resetPeakRSS restarts a process's VmHWM from its current RSS
// (writing 5 to clear_refs, Linux 4.0+), so the next peakRSSMiB covers
// only what ran in between.
func resetPeakRSS(pid string) error {
	if err := os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB returns a process's peak resident set size (VmHWM) in MiB;
// pid "self" is the benchmark itself.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(v)
			if len(fields) == 0 {
				return 0, fmt.Errorf("malformed VmHWM line %q", v)
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
