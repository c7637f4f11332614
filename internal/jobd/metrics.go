package jobd

import (
	"time"

	"gpuwalk/internal/obs"
)

// serverMetrics holds the server's labeled Prometheus families. Hot
// paths (worker transitions, runner item completions) touch only
// atomic children; /metrics snapshots them lock-free relative to
// writers. See docs/OBSERVABILITY.md §7 for the family inventory.
type serverMetrics struct {
	fams *obs.FamilySet

	submitted *obs.Metric // jobd_jobs_submitted_total
	rejected  *obs.Family // jobd_jobs_rejected_total{reason}
	finished  *obs.Family // jobd_jobs_finished_total{state}
	items     *obs.Family // jobd_items_total{outcome}
	itemCache *obs.Family // jobd_item_cache_total{result}
	evicted   *obs.Metric // jobd_jobs_evicted_total
	queued    *obs.Metric // jobd_jobs_queued
	running   *obs.Metric // jobd_jobs_running
	duration  *obs.Family // jobd_job_duration_seconds{state}
	httpReqs  *obs.Family // jobd_http_requests_total{route,code}
	httpBytes *obs.Family // jobd_http_response_bytes{route}
	panics    *obs.Metric // jobd_worker_panics_total
	retries   *obs.Metric // jobd_job_retries_total
	recovered *obs.Metric // jobd_jobs_recovered_total
	backoff   *obs.Metric // jobd_jobs_backoff

	stageSeconds *obs.Family // jobd_stage_seconds{stage}
	queueHigh    *obs.Metric // jobd_queue_depth_highwater
	sseClients   *obs.Metric // jobd_sse_clients
}

// newServerMetrics registers the jobd families on a fresh set. start
// anchors the uptime gauge.
func newServerMetrics(start time.Time) *serverMetrics {
	fs := obs.NewFamilySet()
	m := &serverMetrics{
		fams:      fs,
		submitted: fs.NewCounter("jobd_jobs_submitted_total", "Jobs admitted to the queue.").With(),
		rejected:  fs.NewCounter("jobd_jobs_rejected_total", "Jobs rejected at submission.", "reason"),
		finished:  fs.NewCounter("jobd_jobs_finished_total", "Jobs reaching a terminal state.", "state"),
		items:     fs.NewCounter("jobd_items_total", "Job items finished.", "outcome"),
		itemCache: fs.NewCounter("jobd_item_cache_total", "Item result-cache lookups.", "result"),
		evicted:   fs.NewCounter("jobd_jobs_evicted_total", "Finished jobs evicted from the table by the RetainJobs bound.").With(),
		queued:    fs.NewGauge("jobd_jobs_queued", "Jobs waiting in the queue.").With(),
		running:   fs.NewGauge("jobd_jobs_running", "Jobs currently executing.").With(),
		duration: fs.NewHistogram("jobd_job_duration_seconds",
			"Wall-clock job duration from start to terminal state.",
			obs.DefBuckets, "state"),
		httpReqs: fs.NewCounter("jobd_http_requests_total", "HTTP requests served.", "route", "code"),
		httpBytes: fs.NewHistogram("jobd_http_response_bytes",
			"HTTP response body bytes by route.", obs.ByteBuckets, "route"),
		panics: fs.NewCounter("jobd_worker_panics_total",
			"Runner panics recovered by the worker pool; each fails its job, never the daemon.").With(),
		retries: fs.NewCounter("jobd_job_retries_total",
			"Jobs requeued with backoff after a transient failure.").With(),
		recovered: fs.NewCounter("jobd_jobs_recovered_total",
			"Jobs re-enqueued from the durable journal at startup.").With(),
		backoff: fs.NewGauge("jobd_jobs_backoff",
			"Jobs waiting out a retry backoff before requeueing.").With(),
		stageSeconds: fs.NewHistogram("jobd_stage_seconds",
			"Per-stage request latency, fed by the span tracer (queue wait, execution, journal fsync, cache, sim, backoff).",
			obs.DefBuckets, "stage"),
		queueHigh: fs.NewGauge("jobd_queue_depth_highwater",
			"Highest queue depth observed since the server started.").With(),
		sseClients: fs.NewGauge("jobd_sse_clients",
			"Currently connected SSE event-stream clients.").With(),
	}
	fs.GaugeFunc("jobd_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(start).Seconds()
	})
	// Pre-create the label combinations dashboards expect, so every
	// scrape shows the full family even before the first event.
	m.rejected.With("draining")
	m.rejected.With("queue_full")
	m.rejected.With("journal")
	m.finished.With(string(StateDone))
	m.finished.With(string(StateFailed))
	m.finished.With(string(StateCancelled))
	m.items.With("ok")
	m.items.With("error")
	m.itemCache.With("hit")
	m.itemCache.With("miss")
	for _, stage := range []string{"submit", "queue", "exec", "journal", "cache", "sim"} {
		m.stageSeconds.With(stage)
	}
	obs.RegisterRuntimeMetrics(fs)
	return m
}

// Metrics exposes the server's metric family set so the embedding
// binary (cmd/gpuwalkd) can register its own families — cache
// hit/miss gauges, build_info — on the same /metrics endpoint.
func (s *Server) Metrics() *obs.FamilySet { return s.metrics.fams }

// finishJob records a terminal transition. state is the job's final
// state; dur its start-to-finish wall time (zero for jobs cancelled
// while still queued).
func (m *serverMetrics) finishJob(state State, dur time.Duration) {
	m.finished.With(string(state)).Inc()
	m.duration.With(string(state)).Observe(dur.Seconds())
}
