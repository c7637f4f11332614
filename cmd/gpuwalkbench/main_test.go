package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuwalk/internal/jobd"
)

// fakeRunner mimics gpuwalkd's cached runner: first sight of a spec
// simulates (reports progress, sleeps a moment), repeats are hits.
type fakeRunner struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (f *fakeRunner) run(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
	key := string(spec)
	f.mu.Lock()
	hit := f.seen[key]
	f.seen[key] = true
	f.mu.Unlock()
	if hit {
		return spec, true, nil
	}
	if sink := jobd.ProgressSink(ctx); sink != nil {
		sink(jobd.ItemProgress{Cycles: 1, Done: 1, Total: 2})
	}
	select {
	case <-time.After(time.Millisecond):
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	return spec, false, nil
}

func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	rn := &fakeRunner{seen: map[string]bool{}}
	return startServerWith(t, rn.run)
}

func startServerWith(t *testing.T, runner jobd.Runner) *httptest.Server {
	t.Helper()
	s, err := jobd.NewServer(jobd.Options{
		Runner:           runner,
		Workers:          4,
		QueueSize:        -1,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		ProgressInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return ts
}

// TestRunEndToEnd drives the whole CLI — main run, skew curve, QPS
// sweep — against an in-process jobd server and checks the metrics
// file it writes has the benchdiff-comparable shape.
func TestRunEndToEnd(t *testing.T) {
	ts := startServer(t)
	out := filepath.Join(t.TempDir(), "BENCH_load.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL,
		"-qps", "400", "-ops", "80", "-keys", "25",
		"-dist", "zipfian", "-theta", "0.9",
		"-skews", "0.2,0.95", "-skew-ops", "80",
		"-sweep", "200,400",
		"-sse-every", "4",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("metrics file is not JSON: %v", err)
	}
	for _, key := range []string{
		"target_qps", "achieved_qps", "ops", "ok", "rejected", "errors",
		"submit_p50_ms", "submit_p99_ms", "submit_p999_ms",
		"service_p50_ms", "service_p99_ms",
		"sse_first_progress_p50_ms", "sse_samples",
		"cache_hit_rate", "cache_hits", "cache_misses",
		"saturation_qps",
	} {
		if _, ok := m[key].(float64); !ok {
			t.Errorf("metric %q missing or not a number: %v", key, m[key])
		}
	}
	for _, key := range []string{"benchmark", "model_version", "dist"} {
		if s, ok := m[key].(string); !ok || s == "" {
			t.Errorf("metadata %q missing or empty: %v", key, m[key])
		}
	}
	if got := m["ops"].(float64); got != 80 {
		t.Errorf("ops = %v, want 80", got)
	}
	if got := m["ok"].(float64); got != 80 {
		t.Errorf("ok = %v, want 80 (stderr: %s)", got, stderr.String())
	}
	if curve, ok := m["skew_curve"].([]any); !ok || len(curve) != 2 {
		t.Errorf("skew_curve missing or wrong length: %v", m["skew_curve"])
	}
	if steps, ok := m["qps_steps"].([]any); !ok || len(steps) != 2 {
		t.Errorf("qps_steps missing or wrong length: %v", m["qps_steps"])
	}
}

// TestRunManyLargeResults: a run whose retained jobs' results add up
// to more than the client's 16 MiB response cap still drains and
// tallies every job, because the job list is paged summaries.
func TestRunManyLargeResults(t *testing.T) {
	result := json.RawMessage(`{"pad":"` + strings.Repeat("x", 14<<10) + `"}`)
	ts := startServerWith(t, func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		return result, false, nil
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", ts.URL, "-qps", "2000", "-ops", "1300", "-keys", "50",
		"-skews", "", "-sse-every", "0", "-out", ""}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if want := "jobs: 1300 done, 0 failed, 0 cancelled, 0 evicted"; !strings.Contains(stdout.String(), want) {
		t.Fatalf("stdout lacks %q:\n%s", want, stdout.String())
	}
}

// TestRunBadFlags pins usage errors to exit code 2 and runtime errors
// (unreachable server) to exit code 1.
func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-qps", "not-a-number"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag value: exit %d, want 2", code)
	}
	if code := run([]string{"-ops", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("zero ops: exit %d, want 2", code)
	}
	if code := run([]string{"-dist", "nope", "-addr", startServer(t).URL}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown dist: exit %d, want 1", code)
	}
	if code := run([]string{"-addr", "127.0.0.1:1", "-ops", "1"}, &stdout, &stderr); code != 1 {
		t.Errorf("unreachable server: exit %d, want 1", code)
	}
}
