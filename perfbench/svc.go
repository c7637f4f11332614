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
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpuwalk"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/jobd"
	"gpuwalk/internal/loadgen"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/xrand"
)

// svcWorkload is an open-loop traffic mix against a real gpuwalkd.
type svcWorkload struct {
	rate    float64 // ops sent per second, on a fixed schedule
	limitMs float64 // result latency limit behind slo_met_frac
	// population > 0 draws submissions zipfian over that many specs,
	// all simulated during set-up (svc-hit); 0 makes every submission
	// a distinct spec that misses the cache (svc-miss).
	population int
	// verify is how many svc-miss results are re-simulated in process
	// and compared byte for byte; svc-hit compares every result.
	verify int
}

// svcHit holds 1,252 jobs at its last list read, past the roughly
// 1,210 whose job list fills jobd.Client's 16 MiB read limit, so that
// read fails until the list is paged (ROADMAP item 4).
var (
	svcHit  = svcWorkload{rate: 80, limitMs: 100, population: 64}
	svcMiss = svcWorkload{rate: 40, limitMs: 1000, verify: 8}
)

const (
	daemonStarts  = 15 // setup_s is the median start-to-healthy of these
	daemonWorkers = 2
	subWindows    = 15 // latency percentiles are the median over this many slices of a window
	refRounds     = 3  // times svc-hit's population is simulated in process during set-up
	// listEvery makes every listEvery-th op the documented
	// GET /v1/jobs list read instead of a submission.
	listEvery = 100
	// zipfTheta is the popularity skew of svc-hit's keys, the YCSB
	// convention gpuwalkbench uses too.
	zipfTheta = 0.99
)

// hitWorkloads are the Table II workloads svc-hit's population cycles
// through: two irregular, two regular.
var hitWorkloads = []string{"MVT", "XSB", "SSP", "HOT"}

// spec is one small simulation request, about 15 ms with the DRAM
// stale-tick cascade, so the open loops stay below saturation.
func spec(workload string, genSeed uint64) []byte {
	return []byte(fmt.Sprintf(`{"Workload":%q,"Gen":{"Scale":0.02,"WavefrontsPerCU":1,"InstrsPerWavefront":4,"Seed":%d}}`, workload, genSeed))
}

// reference simulates spec in process the way gpuwalkd's runner does
// and returns the Result JSON the daemon must serve.
func reference(spec []byte) ([]byte, error) {
	cfg := gpuwalk.DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(spec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, err
	}
	res, err := gpuwalk.Run(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// daemon is one gpuwalkd child process with its own temp dir.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	dir    string
	exited chan error
}

// startDaemon starts gpuwalkd on a free port with a fresh cache and
// journal and returns once /healthz answers, with the time that took.
func startDaemon(bin string, pprofOn bool, stderr io.Writer) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("service workloads need --gpuwalkd")
	}
	dir, err := os.MkdirTemp("", "perfbench-gpuwalkd-")
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-cache", filepath.Join(dir, "cache"),
		"-journal", filepath.Join(dir, "journal"), "-workers", fmt.Sprint(daemonWorkers), "-log-level", "error"}
	if pprofOn {
		args = append(args, "-pprof")
	}
	d := &daemon{cmd: exec.Command(bin, args...), dir: dir, exited: make(chan error, 1)}
	d.cmd.Stderr = stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	go func() { d.exited <- d.cmd.Wait() }()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "gpuwalkd: listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case err := <-d.exited:
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("gpuwalkd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("gpuwalkd did not announce its address")
	}
	c := &jobd.Client{BaseURL: d.url}
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Health(ctx)
		cancel()
		if err == nil {
			return d, time.Since(start), nil
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("gpuwalkd not healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain (killing after 30 s) and
// removes the daemon's temp dir.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.dir)
}

// peakRSS is the daemon's peak resident set so far (VmHWM), which its Go
// heap dominates. The kernel tracks it exactly, where sampling
// go_heap_alloc_bytes would miss the short peaks of list reads.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading gpuwalkd peak memory: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("gpuwalkd status has no VmHWM")
}

// countingTransport tallies response body bytes of job reads and list
// reads, as the client received them.
type countingTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	job  []float64
	list []float64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil || r.Method != http.MethodGet {
		return resp, err
	}
	var into *[]float64
	switch p := r.URL.Path; {
	case p == "/v1/jobs":
		into = &t.list
	case strings.HasPrefix(p, "/v1/jobs/"):
		into = &t.job
	default:
		return resp, nil
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int) {
		t.mu.Lock()
		*into = append(*into, float64(n))
		t.mu.Unlock()
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    int
	done func(int)
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// svcOp is one scheduled operation of the open loop.
type svcOp struct {
	list     bool
	spec     []byte
	key      int // population index (svc-hit) or spec index (svc-miss)
	intended time.Time
	sent     time.Time
	acked    time.Time
	id       string
	err      error
	rejected bool
	view     jobd.JobView
	result   []byte // compacted item result once fetched
}

// svcRun holds one daemon and the client state of a service workload.
type svcRun struct {
	o     runOpts
	w     svcWorkload
	d     *daemon
	c     *jobd.Client
	tr    *countingTransport
	rng   *xrand.Rand    // picks the svc-miss results to verify
	keys  loadgen.KeyGen // population index (svc-hit) or spec number (svc-miss)
	specs [][]byte       // svc-hit population
	refs  [][]byte       // svc-hit reference results
	// refNs and refInstr are, per hitWorkloads entry, the CPU ns of
	// each in-process reference run of its specs and its instructions.
	refNs    [][]float64
	refInstr []float64
	// simulated holds every job the daemon simulated, for the
	// sim-level metrics of the service workloads.
	simulated []simulatedJob
}

// simulatedJob is one result the daemon simulated and how long the job
// ran by the daemon's clock.
type simulatedJob struct {
	res gpu.Result
	ran time.Duration
}

// sequence draws 0, 1, 2, ...: every svc-miss op gets a distinct spec.
type sequence struct{ next uint64 }

func (s *sequence) Next() uint64 { s.next++; return s.next - 1 }
func (s *sequence) N() uint64    { return 1 << 31 }

func runSvc(o runOpts, w svcWorkload) (outcome, error) {
	r := &svcRun{o: o, w: w, rng: xrand.New(o.seed ^ 0x5bd1e995), keys: &sequence{}}
	// The daemon starts come first, before the reference runs below
	// leave garbage for this process's collector to sweep beside them.
	var setups []float64
	for i := 0; i < daemonStarts; i++ {
		d, dt, err := startDaemon(o.gpuwalkd, o.trace, o.stderr)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, dt.Seconds())
		if i < daemonStarts-1 {
			d.stop()
		} else {
			r.d = d
		}
	}
	defer r.d.stop()

	if w.population > 0 {
		z, err := loadgen.NewZipfian(xrand.New(o.seed), uint64(w.population), zipfTheta)
		if err != nil {
			return outcome{}, err
		}
		r.keys = z
		if err := r.references(); err != nil {
			return outcome{}, err
		}
	}
	conns := min(daemonWorkers, runtime.NumCPU())
	r.tr = &countingTransport{base: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	r.c = &jobd.Client{BaseURL: r.d.url, HTTP: &http.Client{Transport: r.tr}}

	if err := r.warmUp(); err != nil {
		return outcome{}, err
	}
	if !o.trace {
		ops, err := r.window(o.seconds, nil)
		if err != nil {
			return outcome{}, err
		}
		counts := r.check(ops)
		m, err := r.endToEnd(ops, median(setups))
		if err != nil {
			return outcome{}, err
		}
		m["sim_ns_per_instr"] = metric{r.simNsPerInstr(), "ns"}
		return outcome{ops: counts, metrics: m}, nil
	}
	return r.traced(setups)
}

// references simulates svc-hit's population in process, refRounds
// times over, keeping the first round's results as the references the
// daemon's must match and timing every run for sim_ns_per_instr.
func (r *svcRun) references() error {
	r.refNs = make([][]float64, len(hitWorkloads))
	r.refInstr = make([]float64, len(hitWorkloads))
	for round := 0; round < refRounds; round++ {
		for i := 0; i < r.w.population; i++ {
			s := spec(hitWorkloads[i%len(hitWorkloads)], uint64(i))
			t0 := cpuTime()
			ref, err := reference(s)
			if err != nil {
				return err
			}
			k := i % len(hitWorkloads)
			r.refNs[k] = append(r.refNs[k], float64(cpuTime()-t0))
			if round > 0 {
				continue
			}
			var g gpu.Result
			if err := json.Unmarshal(ref, &g); err != nil {
				return err
			}
			r.refInstr[k] = float64(g.Instructions)
			r.specs, r.refs = append(r.specs, s), append(r.refs, ref)
		}
	}
	return nil
}

// warmUp simulates what the measured window needs cached (svc-hit) or
// a couple of throwaway specs (svc-miss), so the window starts warm.
func (r *svcRun) warmUp() error {
	var ids []string
	var specs [][]byte
	if r.w.population > 0 {
		specs = r.specs
	} else {
		for i := 0; i < 2; i++ {
			specs = append(specs, spec("MVT", r.o.seed<<32|uint64(1<<31+i)))
		}
	}
	ctx := context.Background()
	for _, s := range specs {
		v, err := r.c.Submit(ctx, jobd.SubmitRequest{Spec: s})
		if err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
		ids = append(ids, v.ID)
	}
	for i, id := range ids {
		v, err := r.c.WaitTerminal(ctx, id, 10*time.Millisecond)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if v.State != jobd.StateDone || len(v.Items) != 1 {
			return fmt.Errorf("warm-up job %s ended %s: %s", id, v.State, v.Error)
		}
		res, err := itemResult(v)
		if err != nil {
			return err
		}
		if r.w.population > 0 && !bytes.Equal(res, r.refs[i]) {
			return fmt.Errorf("warm-up job %s: result differs from the in-process run", id)
		}
		if err := r.addSimulated(v, res); err != nil {
			return err
		}
	}
	return nil
}

// addSimulated records a job the daemon simulated.
func (r *svcRun) addSimulated(v jobd.JobView, res []byte) error {
	var g gpu.Result
	if err := json.Unmarshal(res, &g); err != nil {
		return fmt.Errorf("job %s: %w", v.ID, err)
	}
	if v.Started == nil || v.Finished == nil {
		return fmt.Errorf("job %s: done without start and finish times", v.ID)
	}
	r.simulated = append(r.simulated, simulatedJob{g, v.Finished.Sub(*v.Started)})
	return nil
}

func itemResult(v jobd.JobView) ([]byte, error) {
	if len(v.Items) != 1 || !v.Items[0].Done || v.Items[0].Error != "" {
		return nil, fmt.Errorf("job %s: item not done", v.ID)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, v.Items[0].Result); err != nil {
		return nil, fmt.Errorf("job %s: %w", v.ID, err)
	}
	return buf.Bytes(), nil
}

func (r *svcRun) scrape() (promScrape, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.c.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	s, err := parseScrape(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return s, nil
}

// window runs the open loop for seconds through loadgen.Run: ops are
// due at fixed intervals and are timed from when they were due, so a
// stall is charged to every op it delays. Then every submitted job is
// fetched by ID until it is terminal; the loop never waits on the job
// list.
func (r *svcRun) window(seconds float64, spans *obs.SpanBuf) ([]*svcOp, error) {
	conns := min(daemonWorkers, runtime.NumCPU())
	t := &svcTarget{r: r, ops: make([]*svcOp, int(r.w.rate*seconds)), spans: spans}
	ctx := context.Background()
	if _, err := loadgen.Run(ctx, t, loadgen.Options{
		QPS: r.w.rate, Ops: len(t.ops), Keys: r.keys, MaxOutstanding: conns,
	}); err != nil {
		return nil, err
	}
	ops := t.ops

	// Fetch every accepted job by ID until terminal.
	fctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	var fetch atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(fetch.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				op := ops[i]
				if op.list || op.err != nil {
					continue
				}
				sp := spans.StartSpan("jobd.Client.Job", obs.SpanID{})
				op.view, op.err = r.c.WaitTerminal(fctx, op.id, 10*time.Millisecond)
				sp.End()
				if op.err == nil {
					op.result, op.err = itemResult(op.view)
				}
			}
		}()
	}
	wg.Wait()
	return ops, nil
}

// svcTarget sends the ops of one window for loadgen.Run and records
// each by its place in the schedule.
type svcTarget struct {
	r     *svcRun
	ops   []*svcOp
	spans *obs.SpanBuf
}

func (t *svcTarget) Do(ctx context.Context, lo loadgen.Op) loadgen.OpResult {
	op := &svcOp{intended: lo.Intended, sent: lo.Sent, list: lo.Seq%listEvery == listEvery-1}
	t.ops[lo.Seq] = op
	sp := t.spans.StartSpan(opName(op), obs.SpanID{})
	if op.list {
		_, op.err = t.r.c.Jobs(ctx)
	} else {
		op.key = int(lo.Key)
		if t.r.w.population > 0 {
			op.spec = t.r.specs[op.key]
		} else {
			op.spec = spec("MVT", t.r.o.seed<<32|lo.Key)
		}
		var v jobd.JobView
		v, op.err = t.r.c.Submit(ctx, jobd.SubmitRequest{Spec: op.spec})
		op.id = v.ID
	}
	op.acked = time.Now()
	sp.End()
	op.rejected = errors.Is(op.err, jobd.ErrQueueFull) || errors.Is(op.err, jobd.ErrDraining)
	return loadgen.OpResult{Err: op.err, Rejected: op.rejected}
}

func opName(op *svcOp) string {
	if op.list {
		return "jobd.Client.Jobs"
	}
	return "jobd.Client.Submit"
}

// check books every op and verifies results: all of them on svc-hit,
// a seeded sample on svc-miss, each against an in-process run.
func (r *svcRun) check(ops []*svcOp) opCounts {
	var c opCounts
	var done []*svcOp
	for _, op := range ops {
		c.Attempted++
		switch {
		case op.rejected:
			c.Rejected++
		case op.err != nil:
			c.Failed++
			if op.id != "" {
				c.Unfinished++ // accepted, but no result came back
			}
			fmt.Fprintf(r.o.stderr, "perfbench: op failed: %v\n", op.err)
		case op.list:
			c.Succeeded++
		case op.view.State != jobd.StateDone:
			c.Failed++
			c.Unfinished++
			fmt.Fprintf(r.o.stderr, "perfbench: job %s ended %s: %s\n", op.id, op.view.State, op.view.Error)
		default:
			done = append(done, op)
		}
	}
	if r.w.population > 0 {
		for _, op := range done {
			r.verdict(&c, op, r.refs[op.key])
		}
		return c
	}
	pick := r.rng.Perm(len(done))
	if len(pick) > r.w.verify {
		pick = pick[:r.w.verify]
	}
	verify := map[int]bool{}
	for _, i := range pick {
		verify[i] = true
	}
	for i, op := range done {
		if err := r.addSimulated(op.view, op.result); err != nil {
			c.Failed++
			c.Mismatches++
			fmt.Fprintf(r.o.stderr, "perfbench: %v\n", err)
			continue
		}
		if !verify[i] {
			c.Succeeded++
			continue
		}
		ref, err := reference(op.spec)
		if err != nil {
			c.Failed++
			fmt.Fprintf(r.o.stderr, "perfbench: in-process reference: %v\n", err)
			continue
		}
		r.verdict(&c, op, ref)
	}
	return c
}

func (r *svcRun) verdict(c *opCounts, op *svcOp, ref []byte) {
	if bytes.Equal(op.result, ref) {
		c.Succeeded++
		return
	}
	c.Failed++
	c.Mismatches++
	op.err = errors.New("result differs from the in-process run")
	fmt.Fprintf(r.o.stderr, "perfbench: job %s: result differs from the in-process run\n", op.id)
}

// endToEnd derives the latency metrics of one window. Percentiles are
// taken in each of subWindows equal slices of the schedule (one second
// each in a 15 s svc-hit run) and the median slice is reported, so a
// burst of hypervisor steal that covers fewer than half the slices
// does not move a run's figure. slo_met_frac counts an op as met when it succeeded
// within the limit: a submission whose job finished, or a list read
// that decoded.
func (r *svcRun) endToEnd(ops []*svcOp, setup float64) (map[string]metric, error) {
	peak, err := r.d.peakRSS()
	if err != nil {
		return nil, err
	}
	var p [4][]float64 // submit p50, submit p99, result p50, result p99 per slice
	met := 0
	per := (len(ops) + subWindows - 1) / subWindows
	for lo := 0; lo < len(ops); lo += per {
		var submit, result []float64
		for _, op := range ops[lo:min(lo+per, len(ops))] {
			if op.err != nil || op.rejected {
				continue
			}
			lat := ms(op.acked.Sub(op.intended))
			if !op.list {
				submit = append(submit, lat)
				lat = ms(op.view.Finished.Sub(op.intended))
				result = append(result, lat)
			}
			if lat <= r.w.limitMs {
				met++
			}
		}
		p[0] = append(p[0], quantile(submit, 0.5))
		p[1] = append(p[1], quantile(submit, 0.99))
		p[2] = append(p[2], quantile(result, 0.5))
		p[3] = append(p[3], quantile(result, 0.99))
	}
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"peak_heap_mb":  {peak / (1 << 20), "MB"},
		"submit_p50_ms": {median(p[0]), "ms"},
		"submit_p99_ms": {median(p[1]), "ms"},
		"result_p50_ms": {median(p[2]), "ms"},
		"result_p99_ms": {median(p[3]), "ms"},
		"slo_met_frac":  {frac(float64(met), float64(len(ops))), "frac"},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// simNsPerInstr is the median over every job the daemon simulated of
// its run time per simulated instruction. svc-hit's window simulates
// nothing, and its set-up jobs run beside its own submissions and
// journal fsyncs, so there it comes from the in-process reference runs
// of its population instead: each workload's median run time, summed,
// over one spec of each workload's instructions. The four workloads'
// costs differ twentyfold, so a median over all specs would jump
// between them.
func (r *svcRun) simNsPerInstr() float64 {
	if r.w.population > 0 {
		var ns, instr float64
		for i := range r.refNs {
			ns += median(r.refNs[i])
			instr += r.refInstr[i]
		}
		return frac(ns, instr)
	}
	var per []float64
	for _, j := range r.simulated {
		per = append(per, frac(float64(j.ran), float64(j.res.Instructions)))
	}
	return median(per)
}

// traced runs an untraced window, then a traced one under the daemon's
// CPU profile and the benchmark's spans, with /metrics scraped around
// each, and reports the per-layer metrics of the traced window.
func (r *svcRun) traced(setups []float64) (outcome, error) {
	half := r.o.seconds / 2
	plainOps, err := r.window(half, nil)
	if err != nil {
		return outcome{}, err
	}
	var counts opCounts
	counts.add(r.check(plainOps))
	plain, err := r.endToEnd(plainOps, median(setups))
	if err != nil {
		return outcome{}, err
	}

	spans := obs.NewSpanBuf("perfbench", obs.NewTraceID(), spanLimit)
	nSimBefore := len(r.simulated)
	before, err := r.scrape()
	if err != nil {
		return outcome{}, err
	}
	prof, cleanup, err := outFile(r.o, "gpuwalkd-cpu.pprof")
	if err != nil {
		return outcome{}, err
	}
	defer cleanup()
	profErr := make(chan error, 1)
	go func() { profErr <- r.fetchProfile(prof, int(half+0.999)) }()
	tracedOps, err := r.window(half, spans)
	if err != nil {
		return outcome{}, err
	}
	if err := <-profErr; err != nil {
		return outcome{}, err
	}
	after, err := r.scrape()
	if err != nil {
		return outcome{}, err
	}
	counts.add(r.check(tracedOps))
	traced, err := r.endToEnd(tracedOps, median(setups))
	if err != nil {
		return outcome{}, err
	}
	if err := writeSpans(r.o, spans); err != nil {
		return outcome{}, err
	}

	m := map[string]metric{}
	cpu, err := packageCPU(prof)
	if err != nil {
		return outcome{}, err
	}
	newSims := r.simulated[nSimBefore:]
	var instr float64
	for _, j := range newSims {
		instr += float64(j.res.Instructions)
	}
	addPackageCPU(m, cpu, instr)
	if r.w.population > 0 {
		newSims = r.simulated // the population every hit is served from
	}
	var results []gpu.Result
	for _, j := range newSims {
		results = append(results, j.res)
	}
	addSimCounts(m, results)
	for _, n := range []string{"sim.events_per_dram_access", "sim.events_per_instr",
		"runtime.alloc_bytes_per_instr", "runtime.mallocs_per_instr", "workload.generate_s", "gpu.new_system_s"} {
		m[n] = metric{0, perLayer[n]} // in-process probes; the daemon exposes none of these
	}
	hits := delta(before, after, `jobd_item_cache_total{result="hit"}`)
	misses := delta(before, after, `jobd_item_cache_total{result="miss"}`)
	m["jobd.journal_mean_ms"] = metric{stageMeanMs(before, after, "journal"), "ms"}
	m["jobd.submit_mean_ms"] = metric{stageMeanMs(before, after, "submit"), "ms"}
	m["simcache.mean_ms"] = metric{stageMeanMs(before, after, "cache"), "ms"}
	m["simcache.hit_frac"] = metric{frac(hits, hits+misses), "frac"}
	m["jobd.queue_wait_mean_ms"] = metric{stageMeanMs(before, after, "queue"), "ms"}
	m["sim.run_mean_ms"] = metric{stageMeanMs(before, after, "sim"), "ms"}
	m["svc.sim_runs"] = metric{delta(before, after, `jobd_stage_seconds_count{stage="sim"}`), "count"}

	r.tr.mu.Lock()
	jobBytes, listBytes := mean(r.tr.job), quantile(r.tr.list, 1)
	r.tr.mu.Unlock()
	var lists, listFailed float64
	var lag []float64
	for _, op := range tracedOps {
		lag = append(lag, ms(op.sent.Sub(op.intended)))
		if op.list {
			lists++
			if op.err != nil {
				listFailed++
			}
		}
	}
	m["http.job_bytes_mean"] = metric{jobBytes, "bytes"}
	m["http.list_bytes_max"] = metric{listBytes, "bytes"}
	m["http.list_failed_frac"] = metric{frac(listFailed, lists), "frac"}
	m["loadgen.lag_p99_ms"] = metric{quantile(lag, 0.99), "ms"}
	m["ops.rejected"] = metric{float64(counts.Rejected), "count"}
	m["tail.submit_p99_ms"] = plain["submit_p99_ms"]
	m["tail.result_p99_ms"] = plain["result_p99_ms"]
	m["trace.overhead_frac"] = metric{frac(traced["result_p50_ms"].Value, plain["result_p50_ms"].Value) - 1, "frac"}
	return outcome{ops: counts, metrics: m}, nil
}

// fetchProfile saves the daemon's CPU profile over the next seconds.
// It uses its own connection: profiling is the harness's, not load.
func (r *svcRun) fetchProfile(path string, seconds int) error {
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", r.d.url, seconds))
	if err != nil {
		return fmt.Errorf("fetching gpuwalkd profile: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching gpuwalkd profile: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
