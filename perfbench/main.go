// Command perfbench is gpuwalk's benchmark. It runs one named workload
// for a fixed time, checks every output, and prints every metric by
// name with its unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload sim-irregular --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with every
// probe of the benchmark's own off. With --trace 1 it runs the workload
// twice, untraced then traced (CPU profile, spans around each public
// call, /metrics scrapes around each phase), and prints the per-layer
// metrics plus the tracing overhead: the traced headline minus the
// untraced one. METRICS.md defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"gpuwalk"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opCounts books every operation a workload attempted. Rejected ops
// (backpressure) are not failures of the program's logic but still
// missed their result, so the result line counts them as failed.
type opCounts struct {
	Attempted, Succeeded, Failed, Rejected int
	// Mismatches counts outputs that differed from the reference, and
	// Unfinished counts accepted jobs and sim runs that ended without a
	// result; each is also a failed op, and either makes the run
	// incorrect. A failed op with neither, such as a list read the
	// client could not decode, returned no output to check.
	Mismatches, Unfinished int
}

func (c *opCounts) add(o opCounts) {
	c.Attempted += o.Attempted
	c.Succeeded += o.Succeeded
	c.Failed += o.Failed
	c.Rejected += o.Rejected
	c.Mismatches += o.Mismatches
	c.Unfinished += o.Unfinished
}

// runOpts is what every workload receives.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	// gpuwalkd is the daemon binary the service workloads start.
	gpuwalkd string
	// out, when set, receives the run's record, spans and profiles;
	// nothing else outside temp dirs is written.
	out    string
	prefix string // file-name prefix for this run inside out
	stderr io.Writer
}

// outcome is what a workload run returns: its ops and its metrics.
type outcome struct {
	ops     opCounts
	metrics map[string]metric
}

type workload struct {
	name string
	run  func(runOpts) (outcome, error)
}

var workloads = []workload{
	{"sim-irregular", func(o runOpts) (outcome, error) { return runSim(o, simIrregular) }},
	{"sim-regular", func(o runOpts) (outcome, error) { return runSim(o, simRegular) }},
	{"svc-hit", func(o runOpts) (outcome, error) { return runSvc(o, svcHit) }},
	{"svc-miss", func(o runOpts) (outcome, error) { return runSvc(o, svcMiss) }},
}

// endToEnd and perLayer name the metrics each mode prints, with units.
// Every workload prints the full set of its mode; a layer a workload
// does not exercise reads 0 (see METRICS.md).
var endToEnd = map[string]string{
	"sim_ns_per_instr": "ns",
	"setup_s":          "s",
	"peak_heap_mb":     "MB",
	"submit_p50_ms":    "ms",
	"result_p50_ms":    "ms",
	"slo_met_frac":     "frac",
}

var perLayer = map[string]string{
	"sim.self_ns_per_instr":         "ns",
	"dram.self_ns_per_instr":        "ns",
	"iommu.self_ns_per_instr":       "ns",
	"core.self_ns_per_instr":        "ns",
	"tlb.self_ns_per_instr":         "ns",
	"pwc.self_ns_per_instr":         "ns",
	"cache.self_ns_per_instr":       "ns",
	"mmu.self_ns_per_instr":         "ns",
	"gpu.self_ns_per_instr":         "ns",
	"runtime.self_ns_per_instr":     "ns",
	"sim.events_per_dram_access":    "count",
	"sim.events_per_instr":          "count",
	"runtime.alloc_bytes_per_instr": "bytes",
	"runtime.mallocs_per_instr":     "count",
	"workload.generate_s":           "s",
	"gpu.new_system_s":              "s",
	"gpu.sim_cycles":                "count",
	"iommu.walks":                   "count",
	"iommu.walk_lat_mean_cyc":       "cycles",
	"dram.accesses":                 "count",
	"dram.row_hit_frac":             "frac",
	"pwc.hit_frac":                  "frac",
	"tlb.l2_hit_frac":               "frac",
	"cache.l2d_hit_frac":            "frac",
	"jobd.journal_mean_ms":          "ms",
	"jobd.submit_mean_ms":           "ms",
	"simcache.mean_ms":              "ms",
	"simcache.hit_frac":             "frac",
	"jobd.queue_wait_mean_ms":       "ms",
	"sim.run_mean_ms":               "ms",
	"svc.sim_runs":                  "count",
	"http.job_bytes_mean":           "bytes",
	"http.list_bytes_max":           "bytes",
	"http.list_failed_frac":         "frac",
	"loadgen.lag_p99_ms":            "ms",
	"trace.overhead_frac":           "frac",
	// The p99 tails come from the untraced half of a traced run: on a
	// shared 2-core host their run-to-run spread is too wide for an
	// end-to-end bound (see METRICS.md).
	"tail.submit_p99_ms": "ms",
	"tail.result_p99_ms": "ms",
	"ops.rejected":       "count",
}

// env is recorded with every result.
type env struct {
	Go         string  `json:"go"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	SimVersion string  `json:"sim_version"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (sim-irregular, sim-regular, svc-hit, svc-miss)")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 12, "how long the workload measures")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		daemon  = fs.String("gpuwalkd", "", "gpuwalkd binary for the service workloads")
		out     = fs.String("out", "", "directory for the run record, spans and profiles (empty writes none)")
		commit  = fs.String("commit", "unknown", "commit under test, recorded with the result")
		digests = fs.Bool("print-digests", false, "print the sim configs' Result digests via gpuwalk.Run and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *digests {
		return printDigests(stdout, stderr)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	// The load generator and the simulations use at most nproc threads.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	e := env{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: *commit, SimVersion: gpuwalk.SimVersion, Workload: *name, Seed: *seed,
		Seconds: *seconds, Trace: *trace == 1,
	}
	eb, _ := json.Marshal(e)
	fmt.Fprintf(stdout, "env %s\n", eb)

	opts := runOpts{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		gpuwalkd: *daemon, out: *out, stderr: stderr,
		prefix: fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace),
	}
	if opts.out != "" {
		if err := os.MkdirAll(opts.out, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	oc, err := wl.run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	res := result{
		Correct:   oc.ops.Mismatches == 0 && oc.ops.Unfinished == 0,
		Attempted: oc.ops.Attempted,
		Failed:    oc.ops.Failed + oc.ops.Rejected,
		Metrics:   make(map[string]metric, len(want)),
	}
	for n, unit := range want {
		m, ok := oc.metrics[n]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *name, n)
			return 1
		}
		if m.Unit != unit {
			fmt.Fprintf(stderr, "perfbench: %s: unit %q, declared %q\n", n, m.Unit, unit)
			return 1
		}
		res.Metrics[n] = m
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operation\n", *name)
		return 1
	}
	printTable(stdout, oc)
	if opts.out != "" {
		rec := struct {
			Env    env      `json:"env"`
			Ops    opCounts `json:"ops"`
			Result result   `json:"result"`
		}{e, oc.ops, res}
		b, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(filepath.Join(opts.out, opts.prefix+".json"), b, 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printTable prints the op accounting and every measured metric, one
// per line, before the result line.
func printTable(w io.Writer, oc outcome) {
	o := oc.ops
	fmt.Fprintf(w, "ops attempted=%d succeeded=%d failed=%d rejected=%d mismatched=%d unfinished=%d\n",
		o.Attempted, o.Succeeded, o.Failed, o.Rejected, o.Mismatches, o.Unfinished)
	names := make([]string, 0, len(oc.metrics))
	for n := range oc.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, oc.metrics[n].Value, oc.metrics[n].Unit)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}
