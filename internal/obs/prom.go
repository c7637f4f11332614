// Server-grade metrics: a concurrency-safe registry of labeled metric
// families, exposed in the Prometheus text format (promtext.go).
//
// The CSV Registry in registry.go observes one single-threaded
// simulation; a FamilySet observes a whole server, so its contract is
// the opposite: mutation paths (Inc/Add/Set/Observe) are atomic and
// may be called from any goroutine, concurrently with WriteText
// scrapes. Exposition is deterministic — families sort by name and
// children by label values — so two scrapes of the same state are
// byte-identical.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FamilyKind is a Prometheus metric type.
type FamilyKind string

// The supported family kinds.
const (
	KindCounter   FamilyKind = "counter"
	KindGauge     FamilyKind = "gauge"
	KindHistogram FamilyKind = "histogram"
)

// FamilySet is a registry of labeled metric families. The zero value is
// not usable; create with NewFamilySet. All methods are goroutine-safe.
type FamilySet struct {
	mu       sync.Mutex
	families map[string]*Family
}

// NewFamilySet returns an empty family registry.
func NewFamilySet() *FamilySet {
	return &FamilySet{families: make(map[string]*Family)}
}

// Family is one named metric family: a set of children distinguished by
// their label values, all sharing a name, HELP text, and type.
type Family struct {
	name   string
	help   string
	kind   FamilyKind
	labels []string
	bounds []float64 // histogram bucket upper bounds, sorted, no +Inf

	mu       sync.Mutex
	children map[string]*child
	// fn backs callback families (CounterFunc/GaugeFunc): evaluated at
	// scrape time instead of reading stored children.
	fn func() float64
}

// child is one labeled time series within a family.
type child struct {
	labelValues []string

	// counter/gauge state. Counters hold a uint64 count; gauges hold an
	// int64 via two's complement in the same slot is wrong — gauges use
	// gaugeBits (IEEE-754 bits) so Set can carry floats.
	count     atomic.Uint64
	gaugeBits atomic.Uint64

	// histogram state: cumulative-at-scrape bucket counts (stored
	// per-bucket, cumulated by the encoder), observation count, and the
	// float64 bit pattern of the running sum.
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	hsum    atomic.Uint64
	hcount  atomic.Uint64
}

// register adds a family under the set lock, panicking on conflicts.
// Metric and label names are validated against the Prometheus data
// model; both kinds of error are programmer errors, so they panic like
// Registry's duplicate check does.
func (s *FamilySet) register(f *Family) *Family {
	if !validMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", f.name, l))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.families[f.name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric family %q", f.name))
	}
	f.children = make(map[string]*child)
	s.families[f.name] = f
	return f
}

// NewCounter registers a counter family with the given label names.
// Counter values only go up; use With to obtain per-label-set handles.
func (s *FamilySet) NewCounter(name, help string, labelNames ...string) *Family {
	return s.register(&Family{name: name, help: help, kind: KindCounter, labels: labelNames})
}

// NewGauge registers a gauge family with the given label names.
func (s *FamilySet) NewGauge(name, help string, labelNames ...string) *Family {
	return s.register(&Family{name: name, help: help, kind: KindGauge, labels: labelNames})
}

// NewHistogram registers a histogram family with the given bucket upper
// bounds (ascending; the +Inf bucket is implicit) and label names.
func (s *FamilySet) NewHistogram(name, help string, buckets []float64, labelNames ...string) *Family {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bucket bounds not ascending", name))
		}
	}
	bounds := append([]float64(nil), buckets...)
	return s.register(&Family{name: name, help: help, kind: KindHistogram, labels: labelNames, bounds: bounds})
}

// CounterFunc registers an unlabeled counter whose value is read from
// fn at scrape time. Use it to expose an existing cumulative counter
// (e.g. cache hit totals) without double accounting.
func (s *FamilySet) CounterFunc(name, help string, fn func() float64) {
	f := s.register(&Family{name: name, help: help, kind: KindCounter})
	f.fn = fn
}

// GaugeFunc registers an unlabeled gauge read from fn at scrape time
// (queue depths, uptime, cache sizes).
func (s *FamilySet) GaugeFunc(name, help string, fn func() float64) {
	f := s.register(&Family{name: name, help: help, kind: KindGauge})
	f.fn = fn
}

// DefBuckets are general-purpose latency bucket bounds in seconds,
// spanning one millisecond to about four minutes.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 60, 120, 240}

// ByteBuckets are size bucket bounds in bytes, 256 B to 64 MiB in
// steps of four.
var ByteBuckets = []float64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26}

// Name returns the family name.
func (f *Family) Name() string { return f.name }

// Kind returns the family's metric type.
func (f *Family) Kind() FamilyKind { return f.kind }

// With returns the child for the given label values, creating it on
// first use. The number of values must match the family's label names;
// a mismatch panics (it is always a call-site bug). Children are
// cached: With on a hot path costs one mutex acquisition and a map
// lookup, so prefer holding the returned handle.
func (f *Family) With(labelValues ...string) *Metric {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	if f.fn != nil {
		panic(fmt.Sprintf("obs: metric %q is callback-backed; With is not available", f.name))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			c.buckets = make([]atomic.Uint64, len(f.bounds)+1)
		}
		f.children[key] = c
	}
	return &Metric{family: f, child: c}
}

// Metric is a handle on one labeled time series. All mutators are
// atomic and safe for concurrent use; the ones that do not apply to the
// family's kind panic.
type Metric struct {
	family *Family
	child  *child
}

// Inc adds one to a counter.
func (m *Metric) Inc() { m.Add(1) }

// Add adds n (must be non-negative) to a counter.
func (m *Metric) Add(n uint64) {
	if m.family.kind != KindCounter {
		panic(fmt.Sprintf("obs: Add on %s metric %q", m.family.kind, m.family.name))
	}
	m.child.count.Add(n)
}

// Count returns a counter's current value.
func (m *Metric) Count() uint64 { return m.child.count.Load() }

// Set replaces a gauge's value.
func (m *Metric) Set(v float64) {
	if m.family.kind != KindGauge {
		panic(fmt.Sprintf("obs: Set on %s metric %q", m.family.kind, m.family.name))
	}
	m.child.gaugeBits.Store(math.Float64bits(v))
}

// AddGauge moves a gauge by delta (which may be negative).
func (m *Metric) AddGauge(delta float64) {
	if m.family.kind != KindGauge {
		panic(fmt.Sprintf("obs: AddGauge on %s metric %q", m.family.kind, m.family.name))
	}
	for {
		old := m.child.gaugeBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if m.child.gaugeBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Gauge returns a gauge's current value.
func (m *Metric) Gauge() float64 { return math.Float64frombits(m.child.gaugeBits.Load()) }

// Observe records one sample in a histogram.
func (m *Metric) Observe(v float64) {
	if m.family.kind != KindHistogram {
		panic(fmt.Sprintf("obs: Observe on %s metric %q", m.family.kind, m.family.name))
	}
	c := m.child
	i := sort.SearchFloat64s(m.family.bounds, v) // first bound >= v
	c.buckets[i].Add(1)
	c.hcount.Add(1)
	for {
		old := c.hsum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.hsum.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshotFamilies returns the registered families sorted by name.
func (s *FamilySet) snapshotFamilies() []*Family {
	s.mu.Lock()
	fams := make([]*Family, 0, len(s.families))
	for _, f := range s.families {
		fams = append(fams, f)
	}
	s.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// snapshotChildren returns a family's children sorted by label values.
func (f *Family) snapshotChildren() []*child {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		a, b := kids[i].labelValues, kids[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return kids
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
