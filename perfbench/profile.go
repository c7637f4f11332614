package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gpuwalk/internal/obs"
)

// spanLimit bounds the spans a traced run keeps in memory; later spans
// are counted as dropped, not kept.
const spanLimit = 20000

// simPackages are the simulator layers a CPU profile is binned into.
// Every other gpuwalk package, and non-runtime standard library code,
// is left out of the per-layer figures.
var simPackages = []string{"sim", "dram", "iommu", "core", "tlb", "pwc", "cache", "mmu", "gpu", "runtime"}

// svcLayerMetrics are the per-layer metrics only a service workload
// measures; sim workloads report them as 0.
var svcLayerMetrics = []string{
	"jobd.journal_mean_ms", "jobd.submit_mean_ms", "simcache.mean_ms", "simcache.hit_frac",
	"jobd.queue_wait_mean_ms", "sim.run_mean_ms", "svc.sim_runs",
	"http.job_bytes_mean", "http.list_bytes_max", "http.list_failed_frac", "loadgen.lag_p99_ms",
}

// heapSampler tracks the peak of the live-plus-unswept heap of this
// process, read every millisecond without stopping the world.
type heapSampler struct {
	peak  atomic.Uint64
	stopc chan struct{}
	done  chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			h.observe()
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	for v := s[0].Value.Uint64(); ; {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// lap returns the peak in bytes since the last lap and starts a new one.
func (h *heapSampler) lap() uint64 {
	h.observe()
	return h.peak.Swap(0)
}

// stop ends sampling.
func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

// profileCPU runs f under this process's CPU profile and returns CPU
// nanoseconds per package path.
func profileCPU(o runOpts, f func() error) (map[string]float64, error) {
	path, cleanup, err := outFile(o, "cpu.pprof")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	pf, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	ferr := f()
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	return packageCPU(path)
}

// outFile names a file for this run: inside --out when set, otherwise
// in a temp dir that cleanup removes.
func outFile(o runOpts, suffix string) (path string, cleanup func(), err error) {
	if o.out != "" {
		return filepath.Join(o.out, o.prefix+"-"+suffix), func() {}, nil
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return "", nil, err
	}
	return filepath.Join(dir, suffix), func() { os.RemoveAll(dir) }, nil
}

// packageCPU bins a CPU profile's flat (self) time by package with the
// toolchain's pprof, which needs no network or binary: Go profiles
// carry their own symbols.
func packageCPU(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ns", profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	return parsePprofTop(&out)
}

// parsePprofTop sums the flat column of `pprof -top -unit=ns` output by
// package path.
func parsePprofTop(r io.Reader) (map[string]float64, error) {
	byPkg := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	table := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !table {
			table = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		byPkg[packageOf(strings.Join(f[5:], " "))] += ns
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !table {
		return nil, fmt.Errorf("pprof printed no table")
	}
	return byPkg, nil
}

// packageOf returns the package path of a symbol such as
// "gpuwalk/internal/dram.(*channel).tick" or "runtime.mallocgc".
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if i := strings.Index(sym[slash+1:], "."); i >= 0 {
		return sym[:slash+1+i]
	}
	return sym
}

// layerOf maps a package path onto a per-layer name, or "".
func layerOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "gpuwalk/internal/"); ok {
		for _, p := range simPackages {
			if name == p {
				return p
			}
		}
	}
	return ""
}

// addPackageCPU adds <layer>.self_ns_per_instr for every sim layer.
func addPackageCPU(m map[string]metric, byPkg map[string]float64, instrs float64) {
	self := map[string]float64{}
	for pkg, ns := range byPkg {
		if l := layerOf(pkg); l != "" {
			self[l] += ns
		}
	}
	for _, l := range simPackages {
		m[l+".self_ns_per_instr"] = metric{frac(self[l], instrs), "ns"}
	}
}

// writeSpans writes the run's spans as Chrome trace_event JSON into
// --out; without --out the spans stay in memory only.
func writeSpans(o runOpts, spans *obs.SpanBuf) error {
	if o.out == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeSpans(&buf, spans.Spans()); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, o.prefix+"-spans.json"), buf.Bytes(), 0o644)
}

// promScrape is one parsed /metrics document keyed by sample key.
type promScrape map[string]float64

// delta returns after[key] - before[key].
func delta(before, after promScrape, key string) float64 { return after[key] - before[key] }

// stageMeanMs is the mean jobd_stage_seconds of one stage between two
// scrapes, in ms.
func stageMeanMs(before, after promScrape, stage string) float64 {
	sum := delta(before, after, `jobd_stage_seconds_sum{stage="`+stage+`"}`)
	n := delta(before, after, `jobd_stage_seconds_count{stage="`+stage+`"}`)
	return frac(sum, n) * 1000
}

func parseScrape(r io.Reader) (promScrape, error) {
	t, err := obs.ParsePromText(r)
	if err != nil {
		return nil, err
	}
	out := make(promScrape, len(t.Samples))
	for _, s := range t.Samples {
		out[s.Key()] = s.Value
	}
	return out, nil
}
