package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpuwalk/internal/capread"
)

// listPageBytes is the documented size bound of a page at
// ListMaxLimit.
const listPageBytes = 1 << 20

// getPage GETs one list page, returning the raw body and the decoded
// page; a non-200 status fails the test.
func getPage(t *testing.T, base, query string) ([]byte, JobPage) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs?%s: %d %s", query, resp.StatusCode, body)
	}
	var page JobPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("decoding page: %v", err)
	}
	return body, page
}

// waitIdle waits until no job is queued or running.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		page, err := s.List(ListQuery{Limit: 1, States: []State{StateQueued, StateRunning}})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Jobs) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs still unfinished, first %s is %s", page.Jobs[0].ID, page.Jobs[0].State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestListPagesAtScale retains more jobs than fit one 16 MiB response
// with their results inlined (1,300 real MVT Results), and requires
// that Client.Jobs returns every summary exactly once, in admission
// order, while each page at ListMaxLimit stays under listPageBytes
// and carries no item data. The node name is the longest allowed, the
// worst case for the bound.
func TestListPagesAtScale(t *testing.T) {
	const n = 1300
	result, err := os.ReadFile("testdata/mvt_result.json")
	if err != nil {
		t.Fatal(err)
	}
	runner := func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		return result, true, nil
	}
	node := strings.Repeat("n", MaxNodeName)
	if _, err := NewServer(Options{Runner: runner, NodeName: node + "n"}); err == nil {
		t.Fatalf("NewServer accepted a %d-byte node name", MaxNodeName+1)
	}
	s := newTestServer(t, Options{Runner: runner, Workers: 4, QueueSize: -1, NodeName: node})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var ids []string
	for i := 0; i < n; i++ {
		v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitIdle(t, s)
	if v, _ := s.Job(ids[0]); !bytes.Equal(v.Items[0].Result, result) {
		t.Fatalf("job result is not the fixture")
	}

	pages, after := 0, ""
	for {
		body, page := getPage(t, ts.URL, ListQuery{Limit: ListMaxLimit, After: after}.Values().Encode())
		pages++
		if len(body) > listPageBytes {
			t.Errorf("page %d is %d bytes, over the %d-byte bound", pages, len(body), listPageBytes)
		}
		if bytes.Contains(body, []byte(`"items":`)) || bytes.Contains(body, []byte(`"result"`)) {
			t.Fatalf("page %d carries item data", pages)
		}
		t.Logf("page %d: %d jobs, %d bytes", pages, len(page.Jobs), len(body))
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	if want := (n + ListMaxLimit - 1) / ListMaxLimit; pages != want {
		t.Errorf("listed %d pages, want %d", pages, want)
	}

	c := &Client{BaseURL: ts.URL}
	got, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("Client.Jobs returned %d summaries, want %d", len(got), n)
	}
	for i, v := range got {
		if v.ID != ids[i] {
			t.Fatalf("summary %d is %s, want %s (admission order, each once)", i, v.ID, ids[i])
		}
		if v.State != StateDone || v.ItemCount != 1 || v.ItemsDone != 1 || v.CacheHits != 1 || v.Finished == nil {
			t.Fatalf("summary %d = %+v, want a done single-item cache hit", i, v)
		}
	}
}

// TestListCursorAndFilter pins the page contract: limit, the absent
// final cursor, the state filter, jobs admitted between pages, and
// 400s for malformed queries.
func TestListCursorAndFilter(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1, QueueSize: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// One job holds the only worker; four wait behind it.
	blocker, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"block":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := s.Job(blocker.ID); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocking job never started")
		}
		time.Sleep(time.Millisecond)
	}

	ids := func(p JobPage) string {
		var out []string
		for _, v := range p.Jobs {
			out = append(out, v.ID)
		}
		return strings.Join(out, ",")
	}
	_, p1 := getPage(t, ts.URL, "limit=2")
	if got := ids(p1); got != "j000001,j000002" || p1.Next == "" {
		t.Fatalf("page 1 = %s next %q, want j000001,j000002 and a cursor", got, p1.Next)
	}
	// A job admitted mid-walk shows up once, on a later page.
	if _, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	_, p2 := getPage(t, ts.URL, "limit=2&after="+p1.Next)
	_, p3 := getPage(t, ts.URL, "limit=2&after="+p2.Next)
	if got := ids(p2) + "|" + ids(p3); got != "j000003,j000004|j000005,j000006" || p3.Next != "" {
		t.Fatalf("pages 2-3 = %s next %q, want j000003,j000004|j000005,j000006 and no cursor", got, p3.Next)
	}
	if body, _ := getPage(t, ts.URL, "limit=2&after="+p2.Next); bytes.Contains(body, []byte(`"next"`)) {
		t.Fatalf("last page carries a next field: %s", body)
	}

	_, running := getPage(t, ts.URL, "state=running")
	_, queued := getPage(t, ts.URL, "state=queued&limit=3")
	_, either := getPage(t, ts.URL, "state=queued,running")
	if ids(running) != "j000001" || ids(queued) != "j000002,j000003,j000004" || len(either.Jobs) != 6 {
		t.Fatalf("state filter: running %s, queued %s (next %q), queued|running %d jobs",
			ids(running), ids(queued), queued.Next, len(either.Jobs))
	}
	_, rest := getPage(t, ts.URL, "state=queued&limit=3&after="+queued.Next)
	if ids(rest) != "j000005,j000006" || rest.Next != "" {
		t.Fatalf("filtered page 2 = %s next %q", ids(rest), rest.Next)
	}
	_, none := getPage(t, ts.URL, "state=done")
	if none.Jobs == nil || len(none.Jobs) != 0 {
		t.Fatalf("empty page jobs = %#v, want []", none.Jobs)
	}

	for _, q := range []string{"limit=0", "limit=-1", fmt.Sprintf("limit=%d", ListMaxLimit+1),
		"limit=ten", "state=bogus", "state=done,", "after=x"} {
		resp, err := http.Get(ts.URL + "/v1/jobs?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs?%s = %d, want 400", q, resp.StatusCode)
		}
	}

	c := &Client{BaseURL: ts.URL}
	unfinished, err := c.Jobs(context.Background(), StateQueued, StateRunning)
	if err != nil || len(unfinished) != 6 {
		t.Fatalf("Client.Jobs(queued, running) = %d jobs, %v; want 6", len(unfinished), err)
	}
}

// TestClientReadOverCap: a response past the client's read cap is an
// explicit error naming the cap, never a truncated decode.
func TestClientReadOverCap(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":"j000001","error":"%s"}`, strings.Repeat("x", maxResponseBytes))
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	_, err := c.Job(context.Background(), "j000001")
	if !errors.Is(err, capread.ErrTooLarge) {
		t.Fatalf("oversized job read: err %v, want capread.ErrTooLarge", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint(maxResponseBytes)) {
		t.Errorf("error %q does not name the %d-byte cap", err, maxResponseBytes)
	}
}
