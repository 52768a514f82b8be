package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// metric is one reported figure. base says what it was computed from
// (sample or call counts, the denominator of a ratio), so no number is
// printed without the count behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base"`
}

// runReport accumulates a run's metrics, operation counts and failures.
type runReport struct {
	metrics   []metric
	info      []metric // printed for people, not part of the result object
	attempted int64
	failed    int64
	problems  []string
}

func (r *runReport) add(name string, value float64, unit, base string, args ...any) {
	r.metrics = append(r.metrics, metric{name, value, unit, fmt.Sprintf(base, args...)})
}

func (r *runReport) note(name string, value float64, unit, base string, args ...any) {
	r.info = append(r.info, metric{name, value, unit, fmt.Sprintf(base, args...)})
}

// fail records a failed operation or check; any failure makes the run
// incorrect.
func (r *runReport) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// resultObject is the last line of standard output.
type resultObject struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human-readable lines and then the result object,
// and saves the full record (host, bases, problems) as JSON in dir.
func (r *runReport) write(w io.Writer, dir string, h host, workload string, seed int64, traced bool) error {
	correct := r.failed == 0 && r.attempted > 0
	hostLine, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", hostLine)
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", workload, seed, traced)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	for _, m := range r.info {
		fmt.Fprintf(w, "info   %-30s %14s %-10s %s\n", m.Name, fmtValue(m.Value), m.Unit, m.Base)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-30s %14s %-10s %s\n", m.Name, fmtValue(m.Value), m.Unit, m.Base)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.attempted, r.failed, correct)

	record := struct {
		Host      host     `json:"host"`
		Workload  string   `json:"workload"`
		Seed      int64    `json:"seed"`
		Trace     bool     `json:"trace"`
		Correct   bool     `json:"correct"`
		Attempted int64    `json:"attempted"`
		Failed    int64    `json:"failed"`
		Problems  []string `json:"problems,omitempty"`
		Metrics   []metric `json:"metrics"`
		Info      []metric `json:"info,omitempty"`
	}{h, workload, seed, traced, correct, r.attempted, r.failed, r.problems, r.metrics, r.info}
	blob, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", workload, seed, b2i(traced), os.Getpid())
	if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
		return err
	}

	res := resultObject{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultMetric{}}
	for _, m := range r.metrics {
		res.Metrics[m.Name] = resultMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fmtValue(v float64) string {
	s := strconv.FormatFloat(v, 'g', 6, 64)
	if strings.Contains(s, "e+") {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return s
}
