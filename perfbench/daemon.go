package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one siptd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	done   chan struct{} // closed once stdout reaches EOF
	mu     sync.Mutex
	output bytes.Buffer // stdout and stderr, for failure messages
}

// startDaemon execs siptd and waits for its first /readyz 200,
// returning the time from exec to that answer. On error the process is
// already stopped.
func startDaemon(ctx context.Context, bin string, args []string) (*daemon, time.Duration, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = (*lockedWriter)(d)
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting siptd: %w", err)
	}
	addrc := make(chan string, 1) // sent to at most once
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			(*lockedWriter)(d).Write([]byte(line + "\n")) //nolint:errcheck // bytes.Buffer
			if a, ok := strings.CutPrefix(line, "siptd: listening on http://"); ok && !sent {
				addrc <- a
				sent = true
			}
		}
		io.Copy(io.Discard, stdout) //nolint:errcheck // draining after a scan error
	}()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.kill()
		return nil, 0, fmt.Errorf("%w; siptd output:\n%s", err, d.log())
	}
	select {
	case d.addr = <-addrc:
	case <-d.done:
		return fail(errors.New("siptd exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("siptd did not listen within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get("http://" + d.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // status is all we need
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("siptd not ready within 30s (last error %v)", err))
		}
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

type lockedWriter daemon

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.output.Write(p)
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.output.String()
}

// pid is the child's process ID as /proc names it.
func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop sends SIGTERM (siptd drains and exits 0) and waits for the
// process; it kills it if it has not exited within 30 seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling siptd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("siptd did not exit within 30s of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("siptd exit: %w; output:\n%s", err, d.log())
	}
	return nil
}

// kill stops the process unconditionally and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.done
	d.cmd.Wait() //nolint:errcheck // killed on purpose
}

// jobView is the subset of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Error     string          `json:"error"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Tables    json.RawMessage `json:"tables"`
}

func (v jobView) terminal() bool {
	return v.Status == "done" || v.Status == "failed" || v.Status == "canceled"
}

// pollEvery is how often a client polls a job it waits for. It is small
// against the fastest simulated job (about 10 ms), and is part of every
// job latency the benchmark reports.
const pollEvery = 2 * time.Millisecond

// jobTimeout bounds the wait for any one job.
const jobTimeout = 60 * time.Second

// client talks to one siptd over at most two connections (one per
// core), recording a span around every request when traced.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(addr string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status code and body.
func (c *client) do(method, path, route string, body []byte) (int, []byte, error) {
	sp := c.tr.begin("http " + method + " " + route)
	defer c.tr.end(sp, int64(len(body)))
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// submit posts a job and returns its ID; any status but 202 is an
// error naming the status.
func (c *client) submit(path string, body []byte) (string, error) {
	code, out, err := c.do("POST", path, path, body)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("POST %s: status %d: %s", path, code, bytes.TrimSpace(out))
	}
	var v jobView
	if err := json.Unmarshal(out, &v); err != nil {
		return "", fmt.Errorf("POST %s: %w", path, err)
	}
	return v.ID, nil
}

// wait polls a job every pollEvery until it settles.
func (c *client) wait(id string) (jobView, error) {
	deadline := time.Now().Add(jobTimeout)
	for {
		code, out, err := c.do("GET", "/v1/jobs/"+id, "/v1/jobs/{id}", nil)
		if err != nil {
			return jobView{}, err
		}
		if code != http.StatusOK {
			return jobView{}, fmt.Errorf("GET job %s: status %d: %s", id, code, bytes.TrimSpace(out))
		}
		var v jobView
		if err := json.Unmarshal(out, &v); err != nil {
			return jobView{}, fmt.Errorf("GET job %s: %w", id, err)
		}
		if v.terminal() {
			if v.Status != "done" {
				return v, fmt.Errorf("job %s %s: %s", id, v.Status, v.Error)
			}
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("job %s still %s after %v", id, v.Status, jobTimeout)
		}
		time.Sleep(pollEvery)
	}
}

// scrape reads siptd's /metrics into name -> value (unlabelled series
// only).
func (c *client) scrape() (map[string]float64, error) {
	code, out, err := c.do("GET", "/metrics", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseMetrics(out), nil
}

func parseMetrics(text []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m
}
