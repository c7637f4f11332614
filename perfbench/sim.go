package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"time"

	"gpuwalk"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/obs"
)

// simConfig is one simulation the sim workloads run in process.
type simConfig struct {
	Workload string
	Sched    gpuwalk.SchedulerKind
	// Walkers overrides Table I's 8 IOMMU walkers when non-zero
	// (the Fig 13b variant).
	Walkers int
	// Digest is the SHA-256 of the config's Result JSON, recorded from
	// gpuwalk.Run with --print-digests. A simulator change that moves
	// any simulated number changes it.
	Digest string
}

// simWorkload is a fixed set of configs sharing one trace size. The
// seed orders the configs on every pass; the configs themselves stay
// fixed so their digests can be recorded here.
type simWorkload struct {
	wavefronts, instrs int // per CU, per wavefront; footprint stays at the default scale
	configs            []simConfig
	// gates run once per traced run at the default trace size (see
	// gateConfig), outside the timed windows, as a correctness check
	// only: some result-changing simulator edits show only at that size.
	gates []simConfig
}

// simLimitMs is the per-op result latency limit behind slo_met_frac on
// the sim workloads.
const simLimitMs = 1000

// simIrregular is walk-bound: 500-1,100 page walks per run on 32
// instructions, so iommu, core and pwc do the most work. The trace is
// cut from 6x24 to 2x2 instructions per CU so one pass of all 13
// configs (about 2.2 s, 0.8 s of it the 16-walker run) repeats several
// times in a run while the DRAM stale-tick cascade is in the simulator.
// The default-size XSB/SIMT-aware/16-walker run is the gate: it takes
// about 33 s with the cascade and 0.4 s without, and is the known
// config whose Result a fix of the cascade changes (576,290 cycles to
// 570,120).
var simIrregular = simWorkload{
	wavefronts: 2, instrs: 2,
	configs: []simConfig{
		{"XSB", gpuwalk.FCFS, 0, "b76b5f823cfad236b0a166673011ad5caa81edcbe323314e754d2edc1751139b"},
		{"MVT", gpuwalk.FCFS, 0, "ed82e8ceebcaaaa972fe96d185a301d95c4d63c14575b7ccc4cd7bd18a4b2a9b"},
		{"ATX", gpuwalk.FCFS, 0, "5be280f6c44dee0ba27d0d4961bf11f0f27578a9d0f8f8b7b1cdf16959824525"},
		{"NW", gpuwalk.FCFS, 0, "4cff2585367f1caed34d0a002fd4eec43c6bb305dce3526b3b5a849efce3dabf"},
		{"BIC", gpuwalk.FCFS, 0, "e36b4a04a818d055d50c374959c04fc7223e84241f105916b1d15ada7dc1c229"},
		{"GEV", gpuwalk.FCFS, 0, "4e960810c4ca8f1778dca63ad3d39cd420786c4be0a172400cf09c39bad236ea"},
		{"XSB", gpuwalk.SIMTAware, 0, "a3438bbaa98d69621bb82d0f26bbf6ccb6cd8dd8e1267523002e19d01589c64d"},
		{"MVT", gpuwalk.SIMTAware, 0, "a1c888fc6f8b45d0441195cb45c65028798784f16962a6c92671ccf450692491"},
		{"ATX", gpuwalk.SIMTAware, 0, "edb424bb58d07978db3eb82f02bd8f96bbe10bd8356d199e2d98216ee5c90b4d"},
		{"NW", gpuwalk.SIMTAware, 0, "e9885065858f6089f8a9230f6ded956f806f699c206752ca243843c4f47e8f14"},
		{"BIC", gpuwalk.SIMTAware, 0, "d4d25c7cfea760723b54917a2a95d8254711530a66af62e7d2e961ab5a98b406"},
		{"GEV", gpuwalk.SIMTAware, 0, "e4b7a74eefb379efe088910156ec9c792898e6fb2ba172d1b425e1e8490c0cf5"},
		{"XSB", gpuwalk.SIMTAware, 16, "9cf1d76c32fb6667e13642be202c0b35dcd88b01b1e111864aee830d87af05e4"},
	},
	gates: []simConfig{
		{"XSB", gpuwalk.SIMTAware, 16, "810de28b050935f7734fa99ad92b9a542c731cdb0cee946fce7ca03819816f46"},
	},
}

// simRegular is data-bound: 20-280 walks per run on 128 instructions,
// so dram and cache dominate and the stale-tick cascade costs the most
// per DRAM access. One pass takes about 1.3 s.
var simRegular = simWorkload{
	wavefronts: 2, instrs: 8,
	configs: []simConfig{
		{"SSP", gpuwalk.FCFS, 0, "f6dd323ad2ccbb2754830a7bb11e2844c329548a60a87559768b04d559c47cb8"},
		{"MIS", gpuwalk.FCFS, 0, "2f850a04e9e635973dd1db3ad5dc70ef149175db67226ccb4c1aa4259019dd43"},
		{"CLR", gpuwalk.FCFS, 0, "29534a5103e14c3ea562e5289b52c65aee72f26f3c67e88be77b1e89f33dd98d"},
		{"BCK", gpuwalk.FCFS, 0, "f8d0f7b0f444e81596cbc2033f3f81b823101afbf6f3fd825cc42c96b7fe9cb1"},
		{"KMN", gpuwalk.FCFS, 0, "10271bdf524de1656062b3d5304b72c916e98637b139c7afe15096cacdb2fa8d"},
		{"HOT", gpuwalk.FCFS, 0, "09f381249a12d59f97a3c4eb08030457fe086dda9a4a8ea8a5ab2f00353578ba"},
		{"SSP", gpuwalk.SIMTAware, 0, "922b66371351efb686cdac5b67a13485a2562558bc79d62c47f9e95aa279acf1"},
		{"MIS", gpuwalk.SIMTAware, 0, "a1f8b37e800fa2a41c6edca74f4c884b9a372181a5833553180569ba2e7b1654"},
		{"CLR", gpuwalk.SIMTAware, 0, "39ebaa3d0b693d9efb29e2cfc39b3e04cdeb38f9ee485e3fde102f9eaede0b4e"},
		{"BCK", gpuwalk.SIMTAware, 0, "d65a4133b1f81704c802fad6e3d9ef8074b0a4da13fd4f574077f24210428a82"},
		{"KMN", gpuwalk.SIMTAware, 0, "b8980196f16c1c89ce9f71e5e368ae5dcfd387cccaa79f71055ba259c3cedc56"},
		{"HOT", gpuwalk.SIMTAware, 0, "913b2f9e5413bec34184185417e32244d9938d1602325b91b4254c83db581608"},
	},
}

func (c simConfig) String() string {
	s := c.Workload + "/" + string(c.Sched)
	if c.Walkers != 0 {
		s += fmt.Sprintf("/%dw", c.Walkers)
	}
	return s
}

// fullConfig is c at the default trace size.
func (c simConfig) fullConfig() gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = c.Workload
	cfg.Scheduler = c.Sched
	if c.Walkers != 0 {
		cfg.IOMMU.Walkers = c.Walkers
	}
	return cfg
}

// gateConfig is c at the default trace size and seed 1, the config
// `gpuwalksim -workload XSB -sched simt-aware -walkers 16` runs for
// c = XSB/simt-aware/16w.
func (c simConfig) gateConfig() gpuwalk.Config {
	cfg := c.fullConfig()
	cfg.Seed, cfg.Gen.Seed = 1, 1
	return cfg
}

func (w simWorkload) config(c simConfig) gpuwalk.Config {
	cfg := c.fullConfig()
	cfg.Gen.WavefrontsPerCU = w.wavefronts
	cfg.Gen.InstrsPerWavefront = w.instrs
	return cfg
}

func resultDigest(res gpu.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// simSample is one op: set up and run one config.
type simSample struct {
	gen, newSys, run time.Duration
	res              gpu.Result
	events           uint64
	// allocBytes and mallocs are MemStats deltas around Run (traced
	// phase only).
	allocBytes, mallocs uint64
	ok                  bool // the Result matched its recorded digest
}

// simOp times the three public calls of one simulation in CPU time
// (see cpuTime). With spans set it records a span per call under one
// op span, and MemStats deltas around Run.
func simOp(cfg gpuwalk.Config, spans *obs.SpanBuf) (simSample, error) {
	var s simSample
	root := spans.StartSpan("op", obs.SpanID{}, obs.Str("config", cfg.Workload+"/"+string(cfg.Scheduler)))
	defer root.End()

	t0 := cpuTime()
	sp := spans.StartSpan("gpuwalk.Generate", root.ID())
	tr, err := gpuwalk.Generate(cfg)
	sp.End()
	if err != nil {
		return s, err
	}
	t1 := cpuTime()
	sp = spans.StartSpan("gpu.NewSystem", root.ID())
	sys, err := gpu.NewSystem(gpu.Params{
		GPU: cfg.GPU, DRAM: cfg.DRAM, IOMMU: cfg.IOMMU,
		SchedKind: cfg.Scheduler, SchedOpts: cfg.SchedOpts, Seed: cfg.Seed,
	}, tr)
	sp.End()
	if err != nil {
		return s, err
	}
	t2 := cpuTime()
	var m0 runtime.MemStats
	if spans != nil {
		runtime.ReadMemStats(&m0)
	}
	sp = spans.StartSpan("gpu.System.Run", root.ID())
	t3 := cpuTime()
	res, err := sys.Run()
	t4 := cpuTime()
	sp.End()
	if err != nil {
		return s, err
	}
	if spans != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		s.mallocs = m1.Mallocs - m0.Mallocs
	}
	s.gen, s.newSys, s.run = t1-t0, t2-t1, t4-t3
	s.res, s.events = res, sys.Engine().Dispatched()
	return s, nil
}

// simPhase is one measured stretch of a sim workload.
type simPhase struct {
	samples [][]simSample // per config index
	failed  []int         // per config index: runs that returned an error
	ops     opCounts
	// peakHeap is the median over passes of each pass's peak heap.
	peakHeap float64
}

// runSimPhase runs configs in seed-shuffled passes until seconds have
// passed and every config has run at least once. Every Result is
// checked against its recorded digest; a mismatch is a failed op.
func runSimPhase(w simWorkload, seconds float64, rng *rand.Rand, spans *obs.SpanBuf, stderr io.Writer) (simPhase, error) {
	ph := simPhase{samples: make([][]simSample, len(w.configs)), failed: make([]int, len(w.configs))}
	var heap *heapSampler
	var peaks []float64
	if spans == nil {
		heap = startHeapSampler()
		defer heap.stop()
	}
	start := time.Now()
	seen, ran := make([]bool, len(w.configs)), 0
	for ran < len(w.configs) || !deadline(start, seconds) {
		whole := true
		for _, i := range rng.Perm(len(w.configs)) {
			c := w.configs[i]
			if !seen[i] {
				seen[i] = true
				ran++
			}
			ph.ops.Attempted++
			s, err := simOp(w.config(c), spans)
			if err != nil {
				ph.ops.Failed++
				ph.ops.Unfinished++
				ph.failed[i]++
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", c, err)
				continue
			}
			if s.ok, err = checkDigest(c, s.res, &ph.ops, stderr); err != nil {
				return ph, err
			}
			ph.samples[i] = append(ph.samples[i], s)
			if ran == len(w.configs) && deadline(start, seconds) {
				whole = false
				break
			}
		}
		if heap != nil && (whole || len(peaks) == 0) {
			peaks = append(peaks, float64(heap.lap()))
		}
	}
	ph.peakHeap = median(peaks)
	return ph, nil
}

// checkDigest books one finished op of config c: succeeded when res
// matches the recorded digest, failed and mismatched otherwise.
func checkDigest(c simConfig, res gpu.Result, ops *opCounts, stderr io.Writer) (bool, error) {
	d, err := resultDigest(res)
	if err != nil {
		return false, err
	}
	if d == c.Digest {
		ops.Succeeded++
		return true, nil
	}
	ops.Failed++
	ops.Mismatches++
	fmt.Fprintf(stderr, "perfbench: %s: result digest %s, recorded %s\n", c, d, c.Digest)
	return false, nil
}

// runGates runs each gate config once through the public gpuwalk.Run
// and checks its digest. It is not timed.
func runGates(w simWorkload, stderr io.Writer) (opCounts, error) {
	var ops opCounts
	for _, c := range w.gates {
		ops.Attempted++
		res, err := gpuwalk.Run(c.gateConfig())
		if err != nil {
			ops.Failed++
			ops.Unfinished++
			fmt.Fprintf(stderr, "perfbench: %s (default size): %v\n", c, err)
			continue
		}
		if _, err := checkDigest(c, res, &ops, stderr); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// deadline reports whether seconds have passed since start.
func deadline(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}

// nsPerInstr is host CPU ns per simulated instruction over one pass
// built from each config's median run time.
func (ph simPhase) nsPerInstr() float64 {
	var ns, instr float64
	for _, ss := range ph.samples {
		if len(ss) > 0 {
			ns += median(durs(ss, func(s simSample) time.Duration { return s.run }))
			instr += float64(ss[0].res.Instructions)
		}
	}
	return frac(ns, instr)
}

// passMedian sums each config's median of f: the cost of one pass.
func (ph simPhase) passMedian(f func(simSample) time.Duration) float64 {
	var sum float64
	for _, ss := range ph.samples {
		sum += median(durs(ss, f))
	}
	return sum
}

func durs(ss []simSample, f func(simSample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(f(s))
	}
	return out
}

func runSim(o runOpts, w simWorkload) (outcome, error) {
	rng := rand.New(rand.NewPCG(o.seed, 0x9e3779b97f4a7c15))
	if !o.trace {
		ph, err := runSimPhase(w, o.seconds, rng, nil, o.stderr)
		if err != nil {
			return outcome{}, err
		}
		return outcome{ops: ph.ops, metrics: simEndToEnd(ph)}, nil
	}

	// Only traced runs carry the gates: with the stale-tick cascade the
	// gate takes about 33 s, and a benchmark round makes dozens of
	// untraced runs.
	ops, err := runGates(w, o.stderr)
	if err != nil {
		return outcome{}, err
	}

	// Traced: an untraced half, then a traced half under the CPU
	// profile, spans and MemStats probes.
	plain, err := runSimPhase(w, o.seconds/2, rng, nil, o.stderr)
	if err != nil {
		return outcome{}, err
	}
	spans := obs.NewSpanBuf("perfbench", obs.NewTraceID(), spanLimit)
	var traced simPhase
	cpu, err := profileCPU(o, func() error {
		var err error
		traced, err = runSimPhase(w, o.seconds/2, rng, spans, o.stderr)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	if err := writeSpans(o, spans); err != nil {
		return outcome{}, err
	}
	m := map[string]metric{}
	var instrRun float64
	var alloc, mallocs float64
	for _, ss := range traced.samples {
		for _, s := range ss {
			instrRun += float64(s.res.Instructions)
			alloc += float64(s.allocBytes)
			mallocs += float64(s.mallocs)
		}
	}
	addPackageCPU(m, cpu, instrRun)
	m["runtime.alloc_bytes_per_instr"] = metric{frac(alloc, instrRun), "bytes"}
	m["runtime.mallocs_per_instr"] = metric{frac(mallocs, instrRun), "count"}
	m["workload.generate_s"] = metric{traced.passMedian(func(s simSample) time.Duration { return s.gen }) / 1e9, "s"}
	m["gpu.new_system_s"] = metric{traced.passMedian(func(s simSample) time.Duration { return s.newSys }) / 1e9, "s"}
	var results []gpu.Result
	var events float64
	for _, ss := range traced.samples {
		if len(ss) > 0 {
			results = append(results, ss[0].res)
			events += float64(ss[0].events)
		}
	}
	addSimCounts(m, results)
	var dram, instr float64
	for _, r := range results {
		dram += float64(r.DRAM.Reads + r.DRAM.Writes)
		instr += float64(r.Instructions)
	}
	m["sim.events_per_dram_access"] = metric{frac(events, dram), "count"}
	m["sim.events_per_instr"] = metric{frac(events, instr), "count"}
	m["trace.overhead_frac"] = metric{frac(traced.nsPerInstr(), plain.nsPerInstr()) - 1, "frac"}
	plainE2E := simEndToEnd(plain)
	m["tail.submit_p99_ms"] = plainE2E["submit_p99_ms"]
	m["tail.result_p99_ms"] = plainE2E["result_p99_ms"]
	m["ops.rejected"] = metric{0, "count"}
	for _, n := range svcLayerMetrics {
		m[n] = metric{0, perLayer[n]}
	}
	ops.add(plain.ops)
	ops.add(traced.ops)
	return outcome{ops: ops, metrics: m}, nil
}

// simEndToEnd derives the end-to-end metrics of an untraced phase. An
// op of a sim workload is one config: "submit" is its set-up
// (Generate + NewSystem) and "result" is set-up plus Run. Each config
// counts once, by its median op, so a run's latency figures do not
// depend on where its last pass stopped. A config whose runs failed
// or mismatched misses the limit.
func simEndToEnd(ph simPhase) map[string]metric {
	var submit, res []float64
	met := 0
	for i, ss := range ph.samples {
		if len(ss) == 0 {
			continue
		}
		setup := median(durs(ss, func(s simSample) time.Duration { return s.gen + s.newSys })) / 1e6
		total := median(durs(ss, func(s simSample) time.Duration { return s.gen + s.newSys + s.run })) / 1e6
		submit = append(submit, setup)
		res = append(res, total)
		if ph.allOK(i) && total <= simLimitMs {
			met++
		}
	}
	return map[string]metric{
		"sim_ns_per_instr": {ph.nsPerInstr(), "ns"},
		"setup_s":          {ph.passMedian(func(s simSample) time.Duration { return s.gen + s.newSys }) / 1e9, "s"},
		"peak_heap_mb":     {ph.peakHeap / (1 << 20), "MB"},
		"submit_p50_ms":    {quantile(submit, 0.5), "ms"},
		"submit_p99_ms":    {quantile(submit, 0.99), "ms"},
		"result_p50_ms":    {quantile(res, 0.5), "ms"},
		"result_p99_ms":    {quantile(res, 0.99), "ms"},
		"slo_met_frac":     {frac(float64(met), float64(len(ph.samples))), "frac"},
	}
}

// allOK reports whether every run of config i succeeded.
func (ph simPhase) allOK(i int) bool {
	for _, s := range ph.samples[i] {
		if !s.ok {
			return false
		}
	}
	return ph.failed[i] == 0
}

// addSimCounts adds the simulated counts, which a change that only
// speeds up the simulator must leave identical.
func addSimCounts(m map[string]metric, results []gpu.Result) {
	var cycles, walks, latSum, latN, dram, rowHits, rowAll, pwcHit, pwcTot, l2Hit, l2Tot, l2dHit, l2dTot float64
	for _, r := range results {
		cycles += float64(r.Cycles)
		walks += float64(r.IOMMU.WalksDone)
		latSum += r.IOMMU.WalkLatency.Value() * float64(r.IOMMU.WalkLatency.N())
		latN += float64(r.IOMMU.WalkLatency.N())
		dram += float64(r.DRAM.Reads + r.DRAM.Writes)
		rowHits += float64(r.DRAM.RowHits)
		rowAll += float64(r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowConflicts)
		pwcHit += float64(r.PWC.Lookups.Hits)
		pwcTot += float64(r.PWC.Lookups.Total)
		l2Hit += float64(r.GPUL2TLB.Lookups.Hits)
		l2Tot += float64(r.GPUL2TLB.Lookups.Total)
		l2dHit += float64(r.L2D.Lookups.Hits)
		l2dTot += float64(r.L2D.Lookups.Total)
	}
	m["gpu.sim_cycles"] = metric{cycles, "count"}
	m["iommu.walks"] = metric{walks, "count"}
	m["iommu.walk_lat_mean_cyc"] = metric{frac(latSum, latN), "cycles"}
	m["dram.accesses"] = metric{dram, "count"}
	m["dram.row_hit_frac"] = metric{frac(rowHits, rowAll), "frac"}
	m["pwc.hit_frac"] = metric{frac(pwcHit, pwcTot), "frac"}
	m["tlb.l2_hit_frac"] = metric{frac(l2Hit, l2Tot), "frac"}
	m["cache.l2d_hit_frac"] = metric{frac(l2dHit, l2dTot), "frac"}
}

// printDigests prints every sim config's Result digest, computed through
// the public gpuwalk.Run, in the form the tables above record.
func printDigests(stdout, stderr io.Writer) int {
	for _, w := range []simWorkload{simIrregular, simRegular} {
		for _, c := range w.configs {
			if err := printDigest(stdout, c.String(), w.config(c)); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", c, err)
				return 1
			}
		}
		for _, c := range w.gates {
			if err := printDigest(stdout, c.String()+" (default size)", c.gateConfig()); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", c, err)
				return 1
			}
		}
	}
	return 0
}

func printDigest(w io.Writer, name string, cfg gpuwalk.Config) error {
	res, err := gpuwalk.Run(cfg)
	if err != nil {
		return err
	}
	d, err := resultDigest(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %s\n", name, d)
	return nil
}
