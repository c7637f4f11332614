// Package jobd is a small job service for batch simulation: a bounded
// priority queue feeding a context-aware worker pool, fronted by an
// HTTP JSON API with per-job server-sent event streams.
//
// jobd knows nothing about simulations. Work arrives as opaque JSON
// specs and is executed by an injected Runner; cmd/gpuwalkd wires the
// runner to gpuwalk.RunCached so identical specs short-circuit into
// the persistent result cache.
package jobd

import (
	"encoding/json"
	"time"

	"gpuwalk/internal/obs"
)

// State is a job's lifecycle phase.
type State string

// Job states. Terminal states are done, failed and cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Item is one unit of work within a job: a single spec for a plain
// submission, one point of the grid for a sweep.
type Item struct {
	// Spec is the opaque payload handed to the Runner.
	Spec json.RawMessage `json:"spec"`
	// Result is the Runner's output once the item has run.
	Result json.RawMessage `json:"result,omitempty"`
	// CacheHit reports whether the Runner served this item from its
	// result cache rather than computing it.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error is the Runner's error text, if the item failed.
	Error string `json:"error,omitempty"`
	// Done reports whether the item has finished (successfully or not).
	Done bool `json:"done"`
}

// Event is one entry in a job's event log. Events are totally ordered
// per job by Seq; the SSE endpoint replays the log from the start and
// then streams new entries as they are appended.
type Event struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Event types appended over a job's life.
const (
	EventQueued    = "queued"    // job admitted to the queue
	EventStarted   = "started"   // a worker picked the job up; data = {attempt}
	EventItemDone  = "item_done" // one item finished; data = {index, cache_hit, error?}
	EventRetrying  = "retrying"  // transient failure; data = {attempt, delay_ms, error}
	EventDone      = "done"      // terminal: all items succeeded
	EventFailed    = "failed"    // terminal: at least one item failed
	EventCancelled = "cancelled" // terminal: drain or timeout cancelled the job

	// EventProgress is a synthetic SSE-only event type: live telemetry
	// emitted while a job runs (and once before its terminal event).
	// Progress events are never appended to the job's event log and
	// carry no id line, so reconnecting clients cannot resume from one.
	EventProgress = "progress"
)

// PanicError is the error a job item carries when its Runner panicked.
// The worker recovers the panic — one bad spec or a bug on one code
// path must fail that job, not kill the daemon and every other job
// with it — and preserves the stack for the post-mortem.
type PanicError struct {
	// Value is the panic value, stringified.
	Value string
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return "jobd: runner panicked: " + e.Value + "\n" + e.Stack
}

// job is the server-side record. All fields are guarded by the
// server's mutex; the exported snapshot type below is what handlers
// marshal.
type job struct {
	id       string
	priority int
	timeout  time.Duration
	seq      uint64 // admission order, tie-break within a priority
	state    State
	err      string
	items    []Item
	events   []Event
	// attempts counts how many times a worker has started the job
	// (1 for a job that ran once). Transient failures requeue the job
	// with backoff until Options.MaxAttempts is exhausted.
	attempts int
	// recovered marks a job re-enqueued from the journal after a
	// restart rather than submitted over the API.
	recovered bool
	// waiters are signal channels for SSE streams blocked on new
	// events; each is closed (once) when an event is appended or the
	// job reaches a terminal state.
	waiters map[chan struct{}]struct{}

	// prog is the job's live telemetry. Unlike every other field it is
	// NOT guarded by the server mutex: it is all atomics, written by
	// the runner's goroutine and read by HTTP handlers.
	prog progressTracker

	// trace is the job's span buffer, nil when tracing is disabled (or
	// the job predates this daemon's life and was journal-recovered).
	// The pointer is set before the job is published and never changes,
	// so it is read without the server lock; the buffer itself is
	// internally synchronized. The ActiveSpan handles below ARE guarded
	// by the server lock (only lifecycle transitions touch them).
	trace       *obs.SpanBuf
	root        obs.SpanID      // submit span: parent of the job-level spans
	queueSpan   *obs.ActiveSpan // open while the job waits for a worker
	runSpan     *obs.ActiveSpan // open during the current run attempt
	backoffSpan *obs.ActiveSpan // open while waiting out a retry backoff

	created  time.Time
	started  time.Time
	finished time.Time
}

// JobSummary is a job without its items: the GET /v1/jobs list entry.
// Every field is fixed-size or a short server-minted string, so a list
// page's size is bounded by its length alone. Item specs, results,
// error text and progress come only from GET /v1/jobs/{id}.
type JobSummary struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Priority int    `json:"priority"`
	// ItemCount is the number of items (1 for a plain submission).
	ItemCount int `json:"item_count"`
	// ItemsDone counts finished items, for cheap progress polling.
	ItemsDone int `json:"items_done"`
	// CacheHits counts items served from the result cache.
	CacheHits int `json:"cache_hits"`
	// Attempts is how many times a worker has started the job; more
	// than 1 means transient failures were retried.
	Attempts int `json:"attempts,omitempty"`
	// Recovered marks a job re-enqueued from the durable journal after
	// a daemon restart.
	Recovered bool `json:"recovered,omitempty"`
	// Node names the server that holds this job (Options.NodeName).
	// Empty on standalone daemons; in a cluster it tells gateway clients
	// and tests where consistent-hash routing actually placed the job.
	Node string `json:"node,omitempty"`
	// TraceID is the job's W3C trace ID (continued from the submitter's
	// traceparent header, or minted at admission). The span timeline is
	// at GET /v1/jobs/{id}/trace. Empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// JobView is the wire representation of one job: its summary plus
// items, error text and live progress.
type JobView struct {
	JobSummary
	Error string `json:"error,omitempty"`
	Items []Item `json:"items"`
	// Progress is the job's live telemetry, present once the runner has
	// reported (and kept, frozen, after the job finishes).
	Progress *ProgressView `json:"progress,omitempty"`
}

// summary snapshots the job without its items; node is the serving
// node's name (Options.NodeName). Caller holds the server lock.
func (j *job) summary(node string) JobSummary {
	v := JobSummary{
		ID:        j.id,
		State:     j.state,
		Priority:  j.priority,
		ItemCount: len(j.items),
		Created:   j.created,
		Attempts:  j.attempts,
		Recovered: j.recovered,
		Node:      node,
		TraceID:   j.traceID(),
	}
	for _, it := range j.items {
		if it.Done {
			v.ItemsDone++
		}
		if it.CacheHit {
			v.CacheHits++
		}
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// view snapshots the whole job for marshalling. Caller holds the
// server lock.
func (j *job) view(node string) JobView {
	return JobView{
		JobSummary: j.summary(node),
		Error:      j.err,
		Items:      append([]Item(nil), j.items...),
		Progress:   j.prog.snapshot(time.Now()),
	}
}

// traceID returns the job's trace ID as hex, "" when untraced.
func (j *job) traceID() string {
	if j.trace == nil {
		return ""
	}
	return j.trace.Trace().String()
}

// appendEvent logs an event and wakes any blocked SSE streams.
// Caller holds the server lock.
func (j *job) appendEvent(typ string, data any) {
	ev := Event{Seq: len(j.events), Type: typ}
	if data != nil {
		if b, err := json.Marshal(data); err == nil {
			ev.Data = b
		}
	}
	j.events = append(j.events, ev)
	for ch := range j.waiters {
		close(ch)
		delete(j.waiters, ch)
	}
}

// subscribe returns a channel closed at the next event append.
// Caller holds the server lock.
func (j *job) subscribe() chan struct{} {
	ch := make(chan struct{})
	if j.waiters == nil {
		j.waiters = make(map[chan struct{}]struct{})
	}
	j.waiters[ch] = struct{}{}
	return ch
}

// unsubscribe drops a waiter that is no longer listening.
// Caller holds the server lock.
func (j *job) unsubscribe(ch chan struct{}) {
	delete(j.waiters, ch)
}
