package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuwalk/internal/capread"
	"gpuwalk/internal/jobd"
	"gpuwalk/internal/obs"
)

// KeyFunc derives the routing key of one job spec. gpuwalkd wires it
// to the ConfigHash (the simulation's content address), so a job lands
// on the node whose result cache owns — or will own — its result. A
// KeyFunc error falls back to a digest of the raw spec bytes: routing
// stays deterministic and the owning backend produces the
// authoritative validation error.
type KeyFunc func(spec json.RawMessage) (string, error)

// GatewayOptions configures a Gateway.
type GatewayOptions struct {
	// Membership is the probed member list and ring. Required; the
	// caller owns Start/Close.
	Membership *Membership
	// KeyFunc routes specs (see KeyFunc). Nil always uses the raw-bytes
	// fallback.
	KeyFunc KeyFunc
	// HTTP serves proxied request/response exchanges; nil uses a
	// client with a 30s timeout. SSE streams use a dedicated
	// timeout-free client regardless.
	HTTP *http.Client
	// ScrapeTimeout bounds one backend /metrics scrape during rollup.
	// Defaults to 3s.
	ScrapeTimeout time.Duration
	// MaxRoutes bounds the job-ID routing table (FIFO eviction beyond
	// it). Defaults to 65536.
	MaxRoutes int
	// Logger receives routing and proxy-failure logs. Nil discards.
	Logger *slog.Logger
	// SpanLimit bounds each trace's gateway span buffer. Zero uses
	// obs.DefaultSpanLimit; negative disables gateway tracing (the
	// traceparent header still propagates to backends untouched).
	SpanLimit int
}

// Gateway fronts a gpuwalkd cluster: POST /v1/jobs routes to the node
// owning the job's key, job reads and SSE streams proxy to the node
// that accepted the job, /v1/cluster exposes ring and health, and
// /metrics rolls every node's exposition up under a node label.
//
// The gateway holds no job state of its own beyond the job-ID → node
// routing table; a restarted gateway rebuilds routes lazily by
// scatter-gathering unknown IDs across the healthy members.
type Gateway struct {
	m    *Membership
	opts GatewayOptions
	log  *slog.Logger
	hc   *http.Client
	sse  *http.Client

	mu         sync.Mutex
	routes     map[string]string // job ID -> node URL
	routeOrder []string          // FIFO for eviction

	// traces holds the gateway's routing spans per trace ID, nil when
	// GatewayOptions.SpanLimit < 0. See tracestore.go.
	traces *traceStore

	metrics *gatewayMetrics
	reqSeq  atomic.Uint64
}

// NewGateway builds a gateway over an existing membership.
func NewGateway(opts GatewayOptions) (*Gateway, error) {
	if opts.Membership == nil {
		return nil, fmt.Errorf("cluster: GatewayOptions.Membership is required")
	}
	if opts.ScrapeTimeout <= 0 {
		opts.ScrapeTimeout = 3 * time.Second
	}
	if opts.MaxRoutes <= 0 {
		opts.MaxRoutes = 65536
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	hc := opts.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	g := &Gateway{
		m:      opts.Membership,
		opts:   opts,
		log:    log,
		hc:     hc,
		sse:    &http.Client{}, // SSE streams outlive any fixed timeout
		routes: make(map[string]string),
	}
	g.metrics = newGatewayMetrics(g, time.Now())
	if opts.SpanLimit >= 0 {
		g.traces = newTraceStore("gateway", opts.SpanLimit, 0, g.metrics.observeStage)
	}
	return g, nil
}

// routeKey computes the routing key for a submission body. The key of
// a sweep is its first spec's key: a sweep is one job on one node, so
// its items stay together (the server-side sweep DAG of a later PR is
// what will scatter children).
func (g *Gateway) routeKey(body []byte) string {
	var req struct {
		Spec  json.RawMessage   `json:"spec"`
		Specs []json.RawMessage `json:"specs"`
	}
	spec := json.RawMessage(body)
	if err := json.Unmarshal(body, &req); err == nil {
		switch {
		case req.Spec != nil:
			spec = req.Spec
		case len(req.Specs) > 0:
			spec = req.Specs[0]
		}
	}
	if g.opts.KeyFunc != nil {
		if key, err := g.opts.KeyFunc(spec); err == nil {
			return key
		}
	}
	return fallbackKey(spec)
}

// fallbackKey is the routing key of a spec that has no content
// address: the hex SHA-256 of its raw bytes, prefixed so it can never
// collide with a real ConfigHash.
func fallbackKey(spec []byte) string {
	sum := sha256.Sum256(spec)
	return "raw:" + hex.EncodeToString(sum[:])
}

// recordRoute remembers which node accepted a job, evicting the oldest
// entries beyond MaxRoutes.
func (g *Gateway) recordRoute(jobID, node string) {
	if jobID == "" {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.routes[jobID]; !ok {
		g.routeOrder = append(g.routeOrder, jobID)
	}
	g.routes[jobID] = node
	for len(g.routeOrder) > g.opts.MaxRoutes {
		evict := g.routeOrder[0]
		g.routeOrder[0] = ""
		g.routeOrder = g.routeOrder[1:]
		delete(g.routes, evict)
	}
}

// route returns the node known to hold jobID, or "".
func (g *Gateway) route(jobID string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.routes[jobID]
}

// routeCount returns the routing-table size.
func (g *Gateway) routeCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.routes)
}

// Handler returns the gateway HTTP API. The surface mirrors a single
// gpuwalkd node — clients need not know they are talking to a cluster
// — plus the /v1/cluster status endpoint:
//
//	POST /v1/jobs              route to the key's owner
//	GET  /v1/jobs              one page of job summaries, node after node
//	GET  /v1/jobs/{id}         proxy to the accepting node
//	GET  /v1/jobs/{id}/trace   merged gateway + backend span timeline
//	GET  /v1/jobs/{id}/events  streamed SSE proxy (Last-Event-ID passes through)
//	GET  /v1/cluster           ring layout, per-node health, ownership
//	GET  /healthz              ok while >= 1 node is healthy
//	GET  /metrics              gateway families + per-node rollup
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", g.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", g.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleEvents)
	mux.HandleFunc("GET /v1/cluster", g.handleCluster)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g.withTelemetry(mux)
}

// withTelemetry assigns (or adopts) the request ID, counts requests
// by route pattern and status, and records response sizes by route.
// An inbound X-Request-Id is honored so one ID threads client →
// gateway → backend logs; the backend echoes it for the same reason.
// When the request carries a traceparent but no request ID, the ID
// derives from the trace ID — the same derivation the backend uses, so
// every hop of a traced request logs under one request ID with zero
// coordination.
func (g *Gateway) withTelemetry(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remote, tpErr := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		reqID := SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if reqID == "" {
			if tpErr == nil {
				reqID = obs.RequestIDFromTrace(remote.Trace)
			} else {
				reqID = fmt.Sprintf("g%06d", g.reqSeq.Add(1))
			}
		}
		w.Header().Set("X-Request-Id", reqID)
		r.Header.Set("X-Request-Id", reqID)
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(rec, r)
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		g.metrics.httpReqs.With(route, strconv.Itoa(code)).Inc()
		g.metrics.httpBytes.With(route).Observe(float64(rec.bytes))
		logArgs := []any{"request_id", reqID, "route", route,
			"path", r.URL.Path, "code", code, "bytes", rec.bytes,
			"duration_ms", float64(time.Since(start).Microseconds()) / 1000}
		if tpErr == nil {
			logArgs = append(logArgs, "trace_id", remote.Trace.String(), "span_id", remote.Span.String())
		}
		g.log.Debug("gateway request", logArgs...)
	})
}

// SanitizeRequestID validates an externally supplied request ID:
// non-empty, at most 64 bytes, limited to [A-Za-z0-9._-]. Anything
// else returns "" and the server mints its own — an inbound header is
// an optimization for log correlation, never a trusted value.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		gwError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}

	// Record the gateway's half of the trace. The inbound traceparent
	// (if any) is continued; otherwise the gateway starts the trace so
	// the backend's spans still join up with the routing spans here.
	var (
		buf        *obs.SpanBuf
		gwSpan     *obs.ActiveSpan
		routeSpan  *obs.ActiveSpan
		parentSpan obs.SpanID
	)
	if g.traces != nil {
		remote, tpErr := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		trace := remote.Trace
		if tpErr != nil {
			trace = obs.NewTraceID()
		} else {
			parentSpan = remote.Span
		}
		buf = g.traces.buf(trace)
		gwSpan = buf.StartSpan("gateway.submit", parentSpan,
			obs.Str("request_id", r.Header.Get("X-Request-Id")))
		routeSpan = buf.StartSpan("gateway.route", gwSpan.ID())
	}

	key := g.routeKey(body)
	owner := g.m.Owner(key)
	routeSpan.End(obs.Str("key", shortKey(key)), obs.Str("node", NodeName(owner)))
	if owner == "" {
		g.metrics.noOwner.Inc()
		gwSpan.End(obs.Str("error", "no healthy nodes"))
		w.Header().Set("Retry-After", "1")
		gwError(w, http.StatusServiceUnavailable, "cluster: no healthy nodes to own this job")
		return
	}

	// Continue the trace across the proxy hop: the backend's submit
	// span parents to the gateway's proxy span, not to whatever the
	// client sent, so the merged timeline nests client → gateway →
	// backend.
	var proxySpan *obs.ActiveSpan
	if buf != nil {
		proxySpan = buf.StartSpan("gateway.proxy", gwSpan.ID(), obs.Str("node", NodeName(owner)))
		r.Header.Set(obs.TraceparentHeader,
			obs.SpanContext{Trace: buf.Trace(), Span: proxySpan.ID()}.Traceparent())
	}
	resp, rbody, err := g.exchange(r, owner, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		proxySpan.End(obs.Str("error", err.Error()))
		gwSpan.End(obs.Str("error", "backend unreachable"))
		g.proxyFailure(w, owner, err)
		return
	}
	proxySpan.End(obs.U64("code", uint64(resp.StatusCode)))
	var jobID string
	if resp.StatusCode == http.StatusAccepted {
		var v struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(rbody, &v) == nil {
			jobID = v.ID
			g.recordRoute(v.ID, owner)
			if buf != nil {
				g.traces.bindJob(v.ID, buf.Trace())
			}
		}
		g.metrics.routedJobs.With(NodeName(owner)).Inc()
		logArgs := []any{"request_id", r.Header.Get("X-Request-Id"),
			"node", NodeName(owner), "job_id", v.ID, "key", shortKey(key)}
		if buf != nil {
			logArgs = append(logArgs, "trace_id", buf.Trace().String())
		}
		g.log.Info("job routed", logArgs...)
	}
	gwSpan.End(obs.Str("job_id", jobID), obs.U64("code", uint64(resp.StatusCode)))
	g.relay(w, owner, resp, rbody)
}

// handleJob proxies GET /v1/jobs/{id} to the node that accepted the
// job. A known route is authoritative even while its node is down —
// the job genuinely lives there, and a 502 with Retry-After invites
// the client to wait out the node's restart rather than being told the
// job does not exist. Unknown IDs (a restarted gateway) scatter across
// the healthy members.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	g.proxyJobRead(w, r, "/v1/jobs/"+r.PathValue("id"), r.PathValue("id"))
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the merged span
// timeline of a routed job. The gateway fetches the owning backend's
// raw spans (?format=spans), merges them with its own gateway.submit /
// gateway.route / gateway.proxy spans, and renders one Chrome trace —
// the client sees the full client→gateway→backend timeline from a
// single endpoint. When the gateway has no spans for the job (restart,
// eviction, tracing disabled) the backend's rendered trace proxies
// through unchanged.
func (g *Gateway) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	local := g.traces.spansForJob(jobID)
	if local == nil {
		g.proxyJobRead(w, r, "/v1/jobs/"+jobID+"/trace", jobID)
		return
	}

	path := "/v1/jobs/" + jobID + "/trace?format=spans"
	node := g.route(jobID)
	var (
		resp *http.Response
		body []byte
		err  error
	)
	if node != "" {
		resp, body, err = g.exchange(r, node, http.MethodGet, path, nil)
	} else {
		node, resp, body, err = g.scatterFind(r, jobID, path)
	}

	spans := local
	switch {
	case err != nil:
		g.proxyFailure(w, node, err)
		return
	case resp == nil || resp.StatusCode != http.StatusOK:
		// The backend has no trace (restarted node, span buffer
		// disabled): the gateway's own spans are still a valid — if
		// thin — timeline.
	default:
		var doc obs.SpanDoc
		if jerr := json.Unmarshal(body, &doc); jerr == nil {
			spans = append(append([]obs.Span{}, local...), doc.Spans...)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if node != "" {
		w.Header().Set("X-Gpuwalkd-Node", NodeName(node))
	}
	_ = obs.WriteChromeSpans(w, spans)
}

func (g *Gateway) proxyJobRead(w http.ResponseWriter, r *http.Request, path, jobID string) {
	if node := g.route(jobID); node != "" {
		resp, body, err := g.exchange(r, node, http.MethodGet, path, nil)
		if err != nil {
			g.proxyFailure(w, node, err)
			return
		}
		g.relay(w, node, resp, body)
		return
	}
	node, resp, body, err := g.scatterFind(r, jobID, path)
	if err != nil {
		g.proxyFailure(w, "", err)
		return
	}
	if resp == nil {
		gwError(w, http.StatusNotFound, "no such job on any healthy node")
		return
	}
	g.relay(w, node, resp, body)
}

// scatterFind asks each healthy member, in ring order, for a job the
// gateway has no route for, recording the route on a hit. resp is nil
// when every node said 404; err is non-nil only when no node could be
// reached at all.
func (g *Gateway) scatterFind(r *http.Request, jobID, path string) (string, *http.Response, []byte, error) {
	members := g.m.Ring().Members()
	var lastErr error
	reached := false
	for _, node := range members {
		resp, body, err := g.exchange(r, node, http.MethodGet, path, nil)
		if err != nil {
			lastErr = err
			continue
		}
		reached = true
		if resp.StatusCode == http.StatusNotFound {
			continue
		}
		g.recordRoute(jobID, node)
		return node, resp, body, nil
	}
	if !reached && lastErr != nil {
		return "", nil, nil, lastErr
	}
	return "", nil, nil, nil
}

// exchange performs one proxied request/response with the whole body
// buffered (jobs API payloads are small; SSE uses streamProxy). The
// inbound request's X-Request-Id and Traceparent travel to the backend
// so one ID and one trace label the request on both hops.
func (g *Gateway) exchange(r *http.Request, node, method, path string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, node+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", r.Header.Get("X-Request-Id"))
	if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		g.metrics.proxyErrors.With(NodeName(node)).Inc()
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := capread.ReadAll(resp.Body, 64<<20)
	if err != nil {
		g.metrics.proxyErrors.With(NodeName(node)).Inc()
		return nil, nil, err
	}
	g.metrics.proxied.With(NodeName(node)).Inc()
	return resp, b, nil
}

// relay copies a buffered backend response to the client, preserving
// the headers that carry API semantics across the extra hop:
// Retry-After keeps client backoff working, X-Request-Id keeps logs
// correlated, Content-Type keeps bodies parseable. X-Gpuwalkd-Node
// names the backend that actually served the request.
func (g *Gateway) relay(w http.ResponseWriter, node string, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Request-Id", "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Gpuwalkd-Node", NodeName(node))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// proxyFailure reports an unreachable backend as 502 with Retry-After:
// the condition is transient (the prober will reroute new work, a
// journaled node will restart), so well-behaved clients back off and
// retry instead of failing the caller.
func (g *Gateway) proxyFailure(w http.ResponseWriter, node string, err error) {
	if node != "" {
		g.log.Warn("proxy failure", "node", NodeName(node), "error", err.Error())
	}
	w.Header().Set("Retry-After", "1")
	gwError(w, http.StatusBadGateway, fmt.Sprintf("cluster: backend unreachable: %v", err))
}

// gatewayPage is a GET /v1/jobs page as the gateway reads it from a
// node and serves it: summaries left encoded, so they relay byte for
// byte, plus the nodes the page had to skip.
type gatewayPage struct {
	Jobs        []json.RawMessage `json:"jobs"`
	Next        string            `json:"next,omitempty"`
	Unreachable []string          `json:"unreachable,omitempty"`
}

// handleList serves GET /v1/jobs across the cluster in a single node's
// page shape (jobd.ParseListQuery: ?limit=, ?after=, ?state=). It
// walks the healthy members in ring order, each node's pages in turn,
// until the page holds ?limit= summaries. The cursor names the node to
// resume on and that node's own cursor; if the node has left the ring
// since, the walk resumes at the member after it. Nodes that cannot be
// reached are reported in the `unreachable` field rather than silently
// shortening the page.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	q, err := jobd.ParseListQuery(r.URL.Query())
	if err != nil {
		gwError(w, http.StatusBadRequest, err.Error())
		return
	}
	node, after, err := decodeListCursor(q.After)
	if err != nil {
		gwError(w, http.StatusBadRequest, err.Error())
		return
	}
	members := g.m.Ring().Members()
	i := sort.SearchStrings(members, node)
	if i == len(members) || members[i] != node {
		after = ""
	}
	out := gatewayPage{Jobs: make([]json.RawMessage, 0, q.Limit)}
	for ; i < len(members); i++ {
		nq := jobd.ListQuery{Limit: q.Limit - len(out.Jobs), After: after, States: q.States}
		after = ""
		resp, body, err := g.exchange(r, members[i], http.MethodGet, "/v1/jobs?"+nq.Values().Encode(), nil)
		var page gatewayPage
		if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &page) != nil {
			out.Unreachable = append(out.Unreachable, NodeName(members[i]))
			continue
		}
		out.Jobs = append(out.Jobs, page.Jobs...)
		if page.Next != "" {
			out.Next = encodeListCursor(members[i], page.Next)
			break
		}
		if len(out.Jobs) == q.Limit {
			if i+1 < len(members) {
				out.Next = encodeListCursor(members[i+1], "")
			}
			break
		}
	}
	writeGwJSON(w, http.StatusOK, out)
}

// encodeListCursor packs the node to resume on and its own cursor into
// one opaque gateway cursor.
func encodeListCursor(node, after string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(node + "\n" + after))
}

// decodeListCursor undoes encodeListCursor; "" is the first page.
func decodeListCursor(c string) (node, after string, err error) {
	if c == "" {
		return "", "", nil
	}
	b, err := base64.RawURLEncoding.DecodeString(c)
	node, after, ok := strings.Cut(string(b), "\n")
	if err != nil || !ok {
		return "", "", fmt.Errorf("cluster: bad list cursor %q", c)
	}
	return node, after, nil
}

// handleEvents proxies a job's SSE stream from the owning node,
// flushing per event so progress arrives live through the extra hop.
// The inbound Last-Event-ID travels to the backend, so a client
// resuming through the gateway resumes exactly where it left off.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	node := g.route(jobID)
	if node == "" {
		// No route: locate the job first via the cheap JSON endpoint,
		// then stream from wherever it lives.
		found, resp, body, err := g.scatterFind(r, jobID, "/v1/jobs/"+jobID)
		if err != nil {
			g.proxyFailure(w, "", err)
			return
		}
		if resp == nil {
			gwError(w, http.StatusNotFound, "no such job on any healthy node")
			return
		}
		_ = body
		node = found
	}
	g.streamProxy(w, r, node, "/v1/jobs/"+jobID+"/events")
}

// sseTerminalEvents end a job's SSE stream; a backend stream that
// closes without one of these died mid-job and the client must be
// told. The names mirror jobd's terminal event log entries.
var sseTerminalEvents = map[string]bool{
	"done": true, "failed": true, "cancelled": true, "error": true,
}

// streamProxy copies an SSE stream event-by-event. Buffering is
// defeated three ways: the response declares X-Accel-Buffering: no
// (for any reverse proxy in front of the gateway), events are written
// whole and flushed at every blank-line boundary, and the upstream
// read uses a line reader rather than large block reads. If the
// backend connection drops before a terminal event, the gateway emits
// a synthetic `error` event so the client sees an explicit terminal
// outcome instead of a silent close.
func (g *Gateway) streamProxy(w http.ResponseWriter, r *http.Request, node, path string) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, node+path, nil)
	if err != nil {
		g.proxyFailure(w, node, err)
		return
	}
	for _, h := range []string{"Last-Event-ID", "Accept", "X-Request-Id", obs.TraceparentHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := g.sse.Do(req)
	if err != nil {
		g.metrics.proxyErrors.With(NodeName(node)).Inc()
		g.proxyFailure(w, node, err)
		return
	}
	defer resp.Body.Close()
	g.metrics.proxied.With(NodeName(node)).Inc()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		g.relay(w, node, resp, body)
		return
	}

	for _, h := range []string{"Content-Type", "Cache-Control", "X-Request-Id"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Gpuwalkd-Node", NodeName(node))
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl, canFlush := w.(http.Flusher)
	if canFlush {
		fl.Flush()
	}

	br := bufio.NewReader(resp.Body)
	var event bytes.Buffer
	lastType := ""
	writeEvent := func() bool {
		if event.Len() == 0 {
			return true
		}
		if _, err := w.Write(event.Bytes()); err != nil {
			return false
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		event.Reset()
		return true
	}
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			trimmed := strings.TrimRight(line, "\r\n")
			if typ, ok := strings.CutPrefix(trimmed, "event: "); ok {
				lastType = typ
			}
			if trimmed == "" {
				if !writeEvent() {
					return // client gone
				}
			} else {
				event.WriteString(trimmed)
				event.WriteByte('\n')
			}
		}
		if err != nil {
			// Flush any complete-but-unterminated tail first.
			if !writeEvent() {
				return
			}
			if r.Context().Err() != nil {
				return // the client hung up; nothing to tell it
			}
			if err == io.EOF && sseTerminalEvents[lastType] {
				return // clean end of stream
			}
			// The backend died mid-stream: turn the silent close into an
			// explicit terminal event the client can act on.
			g.metrics.sseDrops.Inc()
			g.log.Warn("sse upstream dropped", "node", NodeName(node), "error", errString(err))
			payload, _ := json.Marshal(map[string]string{
				"error": fmt.Sprintf("upstream connection to %s lost: %v", NodeName(node), errString(err)),
				"node":  NodeName(node),
			})
			fmt.Fprintf(w, "event: error\ndata: %s\n\n", payload)
			if canFlush {
				fl.Flush()
			}
			return
		}
	}
}

func errString(err error) string {
	if err == io.EOF {
		return "unexpected EOF"
	}
	return err.Error()
}

// handleCluster serves the ring/health status view.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	st := g.m.Snapshot("gateway")
	writeGwJSON(w, http.StatusOK, struct {
		Status
		Routes int `json:"routes"`
	}{Status: st, Routes: g.routeCount()})
}

// handleHealth: the gateway is healthy while it can route anywhere.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	if g.m.HealthyCount() == 0 {
		w.Header().Set("Retry-After", "1")
		gwError(w, http.StatusServiceUnavailable, "no healthy cluster nodes")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics writes the gateway's own families, then scrapes every
// member (healthy or not — a down node might still answer /metrics
// while draining) and re-emits each sample under a node label. One
// scrape, one consistent per-node snapshot; unreachable nodes count in
// gateway_rollup_errors_total and are skipped.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentTypeProm)
	_ = g.metrics.fams.WriteText(w)

	peers := g.m.Peers()
	docs := make([]*obs.PromText, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			doc, err := g.scrapeOne(p)
			if err != nil {
				g.metrics.rollupErrors.With(NodeName(p)).Inc()
				return
			}
			docs[i] = doc
		}(i, p)
	}
	wg.Wait()
	byNode := make(map[string]*obs.PromText, len(peers))
	for i, p := range peers {
		if docs[i] != nil {
			byNode[NodeName(p)] = docs[i]
		}
	}
	_ = WriteRollup(w, byNode)
}

// scrapeOne fetches and parses one member's /metrics.
func (g *Gateway) scrapeOne(peer string) (*obs.PromText, error) {
	ctx, cancel := context.WithTimeout(context.Background(), g.opts.ScrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics returned %s", resp.Status)
	}
	return obs.ParsePromText(capread.Reader(resp.Body, 8<<20))
}

// gatewayMetrics are the gateway's own families, served before the
// per-node rollup on /metrics.
type gatewayMetrics struct {
	fams *obs.FamilySet

	httpReqs     *obs.Family // gateway_http_requests_total{route,code}
	httpBytes    *obs.Family // gateway_http_response_bytes{route}
	proxied      *obs.Family // gateway_proxied_total{node}
	proxyErrors  *obs.Family // gateway_proxy_errors_total{node}
	routedJobs   *obs.Family // gateway_routed_jobs_total{node}
	rollupErrors *obs.Family // gateway_rollup_errors_total{node}
	noOwner      *obs.Metric // gateway_no_owner_total
	sseDrops     *obs.Metric // gateway_sse_upstream_drops_total
	stageSeconds *obs.Family // gateway_stage_seconds{stage}
}

// gatewayStageForSpan maps a gateway span name to its
// gateway_stage_seconds label; "" means the span is not a stage.
func gatewayStageForSpan(name string) string {
	switch name {
	case "gateway.submit":
		return "submit"
	case "gateway.route":
		return "route"
	case "gateway.proxy":
		return "proxy"
	}
	return ""
}

// observeStage feeds ended gateway spans into the stage histogram; it
// is the traceStore's OnEnd hook.
func (m *gatewayMetrics) observeStage(name string, d time.Duration) {
	if stage := gatewayStageForSpan(name); stage != "" {
		m.stageSeconds.With(stage).Observe(d.Seconds())
	}
}

func newGatewayMetrics(g *Gateway, start time.Time) *gatewayMetrics {
	fs := obs.NewFamilySet()
	m := &gatewayMetrics{
		fams:     fs,
		httpReqs: fs.NewCounter("gateway_http_requests_total", "HTTP requests served by the gateway.", "route", "code"),
		httpBytes: fs.NewHistogram("gateway_http_response_bytes",
			"HTTP response body bytes by route.", obs.ByteBuckets, "route"),
		proxied: fs.NewCounter("gateway_proxied_total", "Requests proxied to a backend node.", "node"),
		proxyErrors: fs.NewCounter("gateway_proxy_errors_total",
			"Proxied exchanges that failed at the transport (backend unreachable or mid-body).", "node"),
		routedJobs: fs.NewCounter("gateway_routed_jobs_total",
			"Jobs accepted by each backend via consistent-hash routing.", "node"),
		rollupErrors: fs.NewCounter("gateway_rollup_errors_total",
			"Backend /metrics scrapes that failed during rollup.", "node"),
		noOwner: fs.NewCounter("gateway_no_owner_total",
			"Submissions rejected because no healthy node could own the key.").With(),
		sseDrops: fs.NewCounter("gateway_sse_upstream_drops_total",
			"SSE streams ended by a synthetic error event after the backend connection dropped.").With(),
		stageSeconds: fs.NewHistogram("gateway_stage_seconds",
			"Gateway request-stage latency by stage (route, proxy, submit).", obs.DefBuckets, "stage"),
	}
	for _, stage := range []string{"route", "proxy", "submit"} {
		m.stageSeconds.With(stage)
	}
	fs.GaugeFunc("gateway_nodes", "Configured cluster members.",
		func() float64 { return float64(len(g.m.Peers())) })
	fs.GaugeFunc("gateway_nodes_healthy", "Members currently passing health probes.",
		func() float64 { return float64(g.m.HealthyCount()) })
	fs.CounterFunc("gateway_ring_rebuilds_total", "Health-driven ring rebuilds.",
		func() float64 { return float64(g.m.Rebuilds()) })
	fs.GaugeFunc("gateway_routes", "Job-ID routing-table entries.",
		func() float64 { return float64(g.routeCount()) })
	fs.GaugeFunc("gateway_uptime_seconds", "Seconds since the gateway started.",
		func() float64 { return time.Since(start).Seconds() })
	fs.GaugeFunc("gateway_traces", "Retained request-trace span buffers.",
		func() float64 {
			if g.traces == nil {
				return 0
			}
			return float64(g.traces.traces())
		})
	obs.RegisterRuntimeMetrics(fs)
	return m
}

// Metrics exposes the gateway's family set so the embedding binary can
// add build_info and friends.
func (g *Gateway) Metrics() *obs.FamilySet { return g.metrics.fams }

// shortKey abbreviates a routing key for logs.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// statusRecorder captures the response code for the request counter
// and the body size for the response-size histogram, passing Flush
// through so SSE streaming works behind it.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeGwJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func gwError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// decodeJSONBody decodes a bounded JSON response body.
func decodeJSONBody(r io.Reader, out any) error {
	b, err := capread.ReadAll(r, 8<<20)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}
