package jobd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuwalk/internal/obs"
)

// reportingRunner reports progress through the context sink: a first
// snapshot immediately, then it parks until release, then a final
// snapshot. step is signalled once the first report has landed.
func reportingRunner(step chan<- struct{}, release <-chan struct{}) Runner {
	return func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		sink := ProgressSink(ctx)
		if sink == nil {
			return nil, false, fmt.Errorf("no progress sink on runner context")
		}
		sink(ItemProgress{Cycles: 100, Done: 1, Total: 10, Walks: 3})
		step <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		sink(ItemProgress{Cycles: 2500, Done: 10, Total: 10, Walks: 42})
		return json.RawMessage(`"done"`), false, nil
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	typ  string
	data string
}

// readSSE parses events off an SSE stream until it closes.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.typ != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestSSEProgressInterleaves: while a reporting job runs, the event
// stream carries periodic `progress` events between the replayed log
// events, a final progress event lands immediately before the
// terminal event, numbers never regress, and the stream closes after
// the terminal event.
func TestSSEProgressInterleaves(t *testing.T) {
	step := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, Options{
		Runner:           reportingRunner(step, release),
		ProgressInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	<-step // the runner has reported once and is parked

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// While parked, GET /v1/jobs/{id} must surface the live telemetry.
	jv, ok := s.Job(v.ID)
	if !ok || jv.Progress == nil {
		t.Fatalf("running job view has no progress: %+v", jv)
	}
	if jv.Progress.Cycles != 100 || jv.Progress.Done != 1 || jv.Progress.Total != 10 {
		t.Fatalf("live progress = %+v", jv.Progress)
	}

	// Let a few progress intervals elapse before finishing the job.
	time.Sleep(30 * time.Millisecond)
	close(release)

	events := readSSE(t, resp.Body)
	var kinds []string
	var progress []progressEvent
	for _, ev := range events {
		kinds = append(kinds, ev.typ)
		if ev.typ == EventProgress {
			var pe progressEvent
			if err := json.Unmarshal([]byte(ev.data), &pe); err != nil {
				t.Fatalf("bad progress payload %q: %v", ev.data, err)
			}
			progress = append(progress, pe)
		}
	}
	if len(progress) == 0 {
		t.Fatalf("no progress events in stream: %v", kinds)
	}
	// Strip progress events: the real log sequence must be intact.
	var logKinds []string
	for _, k := range kinds {
		if k != EventProgress {
			logKinds = append(logKinds, k)
		}
	}
	want := []string{EventQueued, EventStarted, EventItemDone, EventDone}
	if strings.Join(logKinds, ",") != strings.Join(want, ",") {
		t.Fatalf("log events = %v, want %v", logKinds, want)
	}
	// The terminal event is last, and a progress event directly
	// precedes it (the guaranteed final snapshot).
	if kinds[len(kinds)-1] != EventDone {
		t.Fatalf("stream did not end with the terminal event: %v", kinds)
	}
	if kinds[len(kinds)-2] != EventProgress {
		t.Fatalf("no final progress event before the terminal event: %v", kinds)
	}
	for i := 1; i < len(progress); i++ {
		a, b := progress[i-1], progress[i]
		if b.Cycles < a.Cycles || b.Done < a.Done || b.ItemsDone < a.ItemsDone {
			t.Fatalf("progress regressed: %+v -> %+v", a, b)
		}
	}
	final := progress[len(progress)-1]
	if final.Cycles != 2500 || final.Done != 10 || final.Walks != 42 || final.ItemsDone != 1 {
		t.Fatalf("final progress = %+v", final)
	}
}

// TestSSENoProgressWithoutReports: a runner that never reports adds no
// progress events, keeping the plain event sequence byte-compatible.
func TestSSENoProgressWithoutReports(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{
		Runner:           echoRunner(&calls),
		ProgressInterval: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for _, ev := range readSSE(t, resp.Body) {
		if ev.typ == EventProgress {
			t.Fatalf("progress event from a non-reporting runner: %q", ev.data)
		}
	}
}

// TestSlowSSEClientDoesNotBlockWorkers: an SSE subscriber that never
// reads its stream must not stall the worker pool — event appends wake
// waiters by closing channels, never by writing to the client.
func TestSlowSSEClientDoesNotBlockWorkers(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"x":0}`)})
	if err != nil {
		t.Fatal(err)
	}
	// Open the stream and never read from it.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The single worker must still chew through a pile of jobs.
	var last JobView
	for i := 1; i <= 20; i++ {
		last, err = s.Submit(SubmitRequest{Spec: json.RawMessage(fmt.Sprintf(`{"x":%d}`, i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	if v := waitTerminal(t, s, last.ID); v.State != StateDone {
		t.Fatalf("final job = %s, want done", v.State)
	}
}

// TestPprofGate: /debug/pprof/ is mounted only behind Options.Pprof.
func TestPprofGate(t *testing.T) {
	var calls atomic.Int64
	for _, tc := range []struct {
		pprof bool
		want  int
	}{
		{pprof: true, want: http.StatusOK},
		{pprof: false, want: http.StatusNotFound},
	} {
		s := newTestServer(t, Options{Runner: echoRunner(&calls), Pprof: tc.pprof})
		ts := httptest.NewServer(s.Handler())
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("pprof=%v: GET /debug/pprof/ = %d, want %d", tc.pprof, resp.StatusCode, tc.want)
		}
	}
}

// syncWriter serializes concurrent slog writes into one buffer.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestStructuredLogs: lifecycle transitions log JSON records carrying
// the job ID, and HTTP-submitted jobs also carry the request ID that
// the response's X-Request-Id header reported.
func TestStructuredLogs(t *testing.T) {
	var calls atomic.Int64
	w := &syncWriter{}
	s := newTestServer(t, Options{
		Runner: echoRunner(&calls),
		Logger: slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"x":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("no X-Request-Id response header")
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, s, v.ID)

	// Parse every record; index messages by msg text.
	recs := map[string][]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(w.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		msg, _ := m["msg"].(string)
		recs[msg] = append(recs[msg], m)
	}
	for _, msg := range []string{"job accepted", "job started", "item done", "job done"} {
		rs := recs[msg]
		if len(rs) == 0 {
			t.Fatalf("no %q log record in:\n%s", msg, w.String())
		}
		if got, _ := rs[0]["job_id"].(string); got != v.ID {
			t.Fatalf("%q record job_id = %q, want %q", msg, got, v.ID)
		}
	}
	if got, _ := recs["job accepted"][0]["request_id"].(string); got != reqID {
		t.Fatalf("accept log request_id = %q, want %q (from X-Request-Id)", got, reqID)
	}
}

// TestHTTPRequestMetrics: requests are counted by route pattern and
// status code, never by raw path.
func TestHTTPRequestMetrics(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/healthz", "/v1/jobs/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := prom.Sample(`jobd_http_requests_total{code="200",route="GET /healthz"}`); !ok || n != 2 {
		t.Fatalf("healthz request count = %v (present=%v), want 2", n, ok)
	}
	if n, ok := prom.Sample(`jobd_http_requests_total{code="404",route="GET /v1/jobs/{id}"}`); !ok || n != 1 {
		t.Fatalf("missing-job request count = %v (present=%v), want 1", n, ok)
	}
}

// TestHTTPResponseBytesMetric: every response's body size lands in
// jobd_http_response_bytes under its route pattern, so a list page
// that outgrows its bound shows on /metrics.
func TestHTTPResponseBytesMetric(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var listBytes int
	for _, path := range []string{"/healthz", "/healthz", "/v1/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if path == "/v1/jobs" {
			listBytes = len(b)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`jobd_http_response_bytes_count{route="GET /healthz"}`:           2,
		`jobd_http_response_bytes_sum{route="GET /healthz"}`:             float64(2 * len("ok\n")),
		`jobd_http_response_bytes_bucket{le="256",route="GET /healthz"}`: 2,
		`jobd_http_response_bytes_count{route="GET /v1/jobs"}`:           1,
		`jobd_http_response_bytes_sum{route="GET /v1/jobs"}`:             float64(listBytes),
	} {
		if got, ok := prom.Sample(key); !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
}

// TestMetricsScrapeUnderLoad hammers /metrics while jobs run. Its real
// assertion is the race detector (CI runs this package with -race):
// scrapes must be safe against every hot-path metric update.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const jobs = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				return
			}
			if _, err := obs.ParsePromText(resp.Body); err != nil {
				t.Errorf("mid-load scrape unparseable: %v", err)
			}
			resp.Body.Close()
		}
	}()

	var last JobView
	var err error
	for i := 0; i < jobs; i++ {
		last, err = s.Submit(SubmitRequest{Spec: json.RawMessage(fmt.Sprintf(`{"x":%d}`, i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitTerminal(t, s, last.ID)
	close(stop)
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := prom.Sample("jobd_jobs_submitted_total"); n != jobs {
		t.Fatalf("submitted = %v, want %d", n, jobs)
	}
}
