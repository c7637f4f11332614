package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpuwalk/internal/jobd"
	"gpuwalk/internal/obs"
)

// listVia GETs one gateway list page and decodes it.
func listVia(t *testing.T, gwURL, query string) gatewayPage {
	t.Helper()
	resp, err := http.Get(gwURL + "/v1/jobs?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs?%s via gateway: %d %s", query, resp.StatusCode, body)
	}
	var page gatewayPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	return page
}

// pageIDs decodes the job IDs of one gateway page.
func pageIDs(t *testing.T, page gatewayPage) []string {
	t.Helper()
	var ids []string
	for _, raw := range page.Jobs {
		var v jobd.JobSummary
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	return ids
}

// TestGatewayListPages: over three real jobd backends, the gateway's
// GET /v1/jobs serves bounded pages whose cursor walks one node after
// another in ring order, so paging visits every job exactly once; a
// jobd.Client pointed at the gateway lists them all too.
func TestGatewayListPages(t *testing.T) {
	const jobs, limit = 60, 7
	var (
		servers  = map[string]*jobd.Server{}
		backends = map[string]*httptest.Server{}
		names    = map[string]string{}
		peers    []string
	)
	for _, name := range []string{"n1", "n2", "n3"} {
		s, ts := newTracedBackend(t, name)
		servers[ts.URL], backends[ts.URL], names[ts.URL] = s, ts, name
		peers = append(peers, ts.URL)
	}
	m, err := NewMembership(MemberOptions{Peers: peers, ProbeInterval: time.Hour, ProbeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	gw, err := NewGateway(GatewayOptions{Membership: m})
	if err != nil {
		t.Fatal(err)
	}
	gws := httptest.NewServer(gw.Handler())
	t.Cleanup(gws.Close)

	c := &jobd.Client{BaseURL: gws.URL}
	submitted := map[string]bool{}
	for i := 0; i < jobs; i++ {
		v, err := c.Submit(context.Background(), jobd.SubmitRequest{Spec: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))})
		if err != nil {
			t.Fatal(err)
		}
		submitted[v.ID] = true
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range servers {
		for !allTerminal(s.Jobs()) {
			if time.Now().After(deadline) {
				t.Fatal("backend jobs never finished")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Page through at a limit that splits every node's jobs.
	seen := map[string]bool{}
	var order []string
	lists := 0
	for after := ""; ; {
		page := listVia(t, gws.URL, jobd.ListQuery{Limit: limit, After: after}.Values().Encode())
		lists++
		if len(page.Jobs) > limit {
			t.Fatalf("page %d holds %d jobs, over limit %d", lists, len(page.Jobs), limit)
		}
		for _, id := range pageIDs(t, page) {
			if seen[id] {
				t.Fatalf("job %s listed twice", id)
			}
			seen[id] = true
			order = append(order, id)
		}
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	if len(seen) != jobs {
		t.Fatalf("paged %d distinct jobs, want %d", len(seen), jobs)
	}
	for id := range submitted {
		if !seen[id] {
			t.Fatalf("submitted job %s never listed", id)
		}
	}
	// Node after node in ring (sorted URL) order: the node prefixes of
	// the listed IDs change at most twice.
	changes := 0
	for i := 1; i < len(order); i++ {
		if prefix(order[i]) != prefix(order[i-1]) {
			changes++
		}
	}
	if changes > 2 {
		t.Errorf("listing interleaves nodes (%d changes): %v", changes, order)
	}

	all, err := c.Jobs(context.Background())
	if err != nil || len(all) != jobs {
		t.Fatalf("Client.Jobs via gateway = %d jobs, %v; want %d", len(all), err, jobs)
	}
	unfinished, err := c.Jobs(context.Background(), jobd.StateQueued, jobd.StateRunning)
	if err != nil || len(unfinished) != 0 {
		t.Fatalf("state filter via gateway = %d unfinished jobs, %v; want 0", len(unfinished), err)
	}
	lists += 2

	// A cursor into a node that has since left the ring resumes at the
	// first job of the member after it.
	members := m.Ring().Members()
	first := listVia(t, gws.URL, "limit=1")
	backends[members[0]].Close()
	m.probeAll()
	resumed := listVia(t, gws.URL, "limit=1&after="+first.Next)
	lists += 2
	if got, want := pageIDs(t, resumed), names[members[1]]+"-j000001"; len(got) != 1 || got[0] != want {
		t.Fatalf("after %s left, the cursor resumed at %v, want [%s]", names[members[0]], got, want)
	}

	resp, err := http.Get(gws.URL + "/v1/jobs?after=%25%25")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cursor = %d, want 400", resp.StatusCode)
	}
	lists++

	resp, err = http.Get(gws.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	key := `gateway_http_response_bytes_count{route="GET /v1/jobs"}`
	if got, ok := prom.Sample(key); !ok || got < float64(lists) {
		t.Errorf("%s = %v (present=%v), want >= %d list responses", key, got, ok, lists)
	}
}

func allTerminal(jobs []jobd.JobSummary) bool {
	for _, v := range jobs {
		if !v.State.Terminal() {
			return false
		}
	}
	return true
}

// prefix is the node part of a cluster job ID ("n2-j000004" -> "n2").
func prefix(id string) string {
	p, _, _ := strings.Cut(id, "-")
	return p
}
