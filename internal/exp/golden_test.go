package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment tables")

// goldenOpts pins the configuration the golden tables were generated
// with. The reduced app set and trace length keep the test fast while
// still exercising every SIPT mode the figures compare.
func goldenOpts() Options {
	return Options{
		Records: 20_000,
		Seed:    1,
		Apps:    []string{"libquantum", "calculix", "h264ref", "ycsb"},
		Workers: 2,
	}
}

// renderExperiment runs one experiment on a fresh runner and renders
// every table to one text blob.
func renderExperiment(t *testing.T, id string) string {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := e.Run(NewRunner(goldenOpts()))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	for _, tab := range tabs {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestGoldenTables asserts that the hot-path optimisations never change
// experiment output: fig6/fig9/fig13 must render byte-identically to
// the golden output captured from the pre-optimisation implementation,
// and fig18 to the output captured before its lanes shared an L1 front
// end.
// Regenerate (only after an intentional semantic change) with:
//
//	go test ./internal/exp -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for _, id := range []string{"fig6", "fig9", "fig13", "fig18"} {
		t.Run(id, func(t *testing.T) {
			got := renderExperiment(t, id)
			path := filepath.Join("testdata", "golden_"+id+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s table output drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s",
					id, got, want)
			}
		})
	}
}

// TestGoldenDeterminism asserts a single experiment renders identically
// across two independent runners (fresh caches, parallel workers): the
// byte-identical-output gate that makes the benchmark harness
// trustworthy.
func TestGoldenDeterminism(t *testing.T) {
	a := renderExperiment(t, "fig6")
	b := renderExperiment(t, "fig6")
	if a != b {
		t.Errorf("fig6 output not deterministic across runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
