// Package obs is the daemon's dependency-free observability core: a
// metrics registry of counters, gauges, and histograms with atomic hot
// paths, exposed in the Prometheus text format over an http.Handler.
//
// Two collection styles coexist, matching how the layers above keep their
// numbers:
//
//   - Push instruments (Counter, Histogram, CounterVec) are
//     incremented inline where the event happens — an HTTP request
//     finishing, a WAL fsync returning. Their hot paths are single atomic
//     operations, cheap enough for paths the benchgate budget covers.
//   - Pull collectors (CounterFunc, GaugeFunc, GaugeVecFunc) read an
//     existing stats surface at scrape time — Session.Stats, Job
//     StreamStats, jobstore.File.Stats. The instrumented layer pays
//     nothing between scrapes, which is how the GA hot paths stay inside
//     their <5% observability budget: the counters they already kept in
//     private structs are simply polled.
//
// Cardinality rule: label values must come from a bounded set (routes,
// states, outcomes) — never from unbounded identifiers. The one exception
// is the per-job series, which are produced by a GaugeVecFunc enumerating
// only the live, non-terminal jobs, so a terminal job's series retire on
// the next scrape instead of accumulating forever.
//
// The exposition is deterministic: families render sorted by name, label
// sets sorted within a family, so scrapes diff cleanly and tests can
// assert on substrings.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are general-purpose latency buckets in seconds, spanning
// 100µs to 2.5s — sized for fsync and request latencies.
var DefBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// Registry holds a set of uniquely-named metric families. Create with
// NewRegistry; all methods are safe for concurrent use. Registering two
// families under one name panics — duplicate metric names are a
// programming error the first scrape would otherwise hide.
type Registry struct {
	mu   sync.Mutex
	seen map[string]bool
	fams []family
}

// family is one named metric family: it renders its HELP/TYPE header and
// every sample it currently holds.
type family interface {
	name() string
	write(w *bufio.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: map[string]bool{}}
}

func (r *Registry) add(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := f.name()
	if !validName(n) {
		panic(fmt.Sprintf("obs: invalid metric name %q", n))
	}
	if r.seen[n] {
		panic(fmt.Sprintf("obs: metric %q registered twice", n))
	}
	r.seen[n] = true
	r.fams = append(r.fams, f)
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// WriteTo renders every family in the Prometheus text exposition format,
// sorted by family name. It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]family(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name() < fams[j].name() })
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	for _, f := range fams {
		f.write(bw)
	}
	err := bw.Flush()
	if cw.err != nil {
		err = cw.err
	}
	return cw.n, err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}

// Handler serves the registry as text/plain in the Prometheus exposition
// format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

// Healthy is the /healthz self-check: it renders the full exposition to a
// throwaway buffer and errors when the registry is empty or a collector
// produced an invalid sample (NaN from a polled ratio, typically).
func (r *Registry) Healthy() error {
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		return err
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE ") {
		return fmt.Errorf("obs: registry rendered no metric families")
	}
	if strings.Contains(out, "NaN") {
		return fmt.Errorf("obs: a collector produced NaN")
	}
	return nil
}

// The exposition format escapes backslash and newline in HELP text, and
// additionally the double quote in label values.
var (
	helpEscaper  = strings.NewReplacer("\\", `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer("\\", `\\`, `"`, `\"`, "\n", `\n`)
)

// header writes one family's HELP/TYPE preamble.
func header(w *bufio.Writer, name, help, typ string) {
	if help != "" {
		w.WriteString("# HELP ")
		w.WriteString(name)
		w.WriteByte(' ')
		w.WriteString(helpEscaper.Replace(help))
		w.WriteByte('\n')
	}
	w.WriteString("# TYPE ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(typ)
	w.WriteByte('\n')
}

// formatValue renders a sample value; integral values print without an
// exponent so counters read naturally.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	return labelEscaper.Replace(s)
}

// sample writes one `name{labels} value` line. keys and values are
// parallel; empty keys renders a bare sample.
func sample(w *bufio.Writer, name string, keys, values []string, v float64) {
	w.WriteString(name)
	if len(keys) > 0 {
		w.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(k)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// Counter is a monotonically-increasing value. Inc/Add are single atomic
// operations.
type Counter struct {
	nameStr, help string
	v             atomic.Uint64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{nameStr: name, help: help}
	r.add(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) name() string { return c.nameStr }
func (c *Counter) write(w *bufio.Writer) {
	header(w, c.nameStr, c.help, "counter")
	sample(w, c.nameStr, nil, nil, float64(c.v.Load()))
}

// funcFamily is a pull collector: one unlabeled sample read at scrape
// time.
type funcFamily struct {
	nameStr, help, typ string
	fn                 func() float64
}

// CounterFunc registers a pull collector exposed as a counter — fn must
// be monotonic (a total read off an existing stats surface).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&funcFamily{nameStr: name, help: help, typ: "counter", fn: fn})
}

// GaugeFunc registers a pull collector exposed as a gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&funcFamily{nameStr: name, help: help, typ: "gauge", fn: fn})
}

func (f *funcFamily) name() string { return f.nameStr }
func (f *funcFamily) write(w *bufio.Writer) {
	header(w, f.nameStr, f.help, f.typ)
	sample(w, f.nameStr, nil, nil, f.fn())
}

// LabeledValue is one sample of a GaugeVecFunc: label values (parallel to
// the vec's keys) plus the value.
type LabeledValue struct {
	Labels []string
	Value  float64
}

// vecFuncFamily is a pull collector producing a whole labeled family per
// scrape. Series exist exactly as long as fn reports them — the
// cardinality-retirement mechanism for per-job metrics.
type vecFuncFamily struct {
	nameStr, help, typ string
	keys               []string
	fn                 func() []LabeledValue
}

// GaugeVecFunc registers a pull collector producing labeled gauge samples
// at scrape time. A series disappears as soon as fn stops reporting it,
// so callers enumerating live objects (jobs, connections) get retirement
// for free.
func (r *Registry) GaugeVecFunc(name, help string, keys []string, fn func() []LabeledValue) {
	r.add(&vecFuncFamily{nameStr: name, help: help, typ: "gauge", keys: keys, fn: fn})
}

func (f *vecFuncFamily) name() string { return f.nameStr }
func (f *vecFuncFamily) write(w *bufio.Writer) {
	header(w, f.nameStr, f.help, f.typ)
	vals := f.fn()
	sort.Slice(vals, func(i, j int) bool {
		return strings.Join(vals[i].Labels, "\x1f") < strings.Join(vals[j].Labels, "\x1f")
	})
	for _, lv := range vals {
		if len(lv.Labels) != len(f.keys) {
			continue
		}
		sample(w, f.nameStr, f.keys, lv.Labels, lv.Value)
	}
}

// CounterVec is a family of counters keyed by one or more label values
// (e.g. requests by route and status). With interns the child so hot
// callers can cache it and skip the map lookup.
type CounterVec struct {
	nameStr, help string
	keys          []string
	mu            sync.Mutex
	children      map[string]*Counter
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	for _, k := range keys {
		if !validName(k) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
	}
	v := &CounterVec{nameStr: name, help: help, keys: keys, children: map[string]*Counter{}}
	r.add(v)
	return v
}

// With returns the child counter for the given label values (created on
// first use). The label-value count must match the vec's keys.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.nameStr, len(v.keys), len(values)))
	}
	key := strings.Join(values, "\x1f")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &Counter{nameStr: v.nameStr}
		v.children[key] = c
	}
	return c
}

func (v *CounterVec) name() string { return v.nameStr }
func (v *CounterVec) write(w *bufio.Writer) {
	header(w, v.nameStr, v.help, "counter")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		labels []string
		v      float64
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{labels: strings.Split(k, "\x1f"), v: float64(v.children[k].Value())})
	}
	v.mu.Unlock()
	for _, r := range rows {
		sample(w, v.nameStr, v.keys, r.labels, r.v)
	}
}

// Histogram is a fixed-bucket distribution with atomic observation:
// Observe does one binary search, one bucket increment, and one CAS-added
// sum. Buckets are upper bounds in ascending order; +Inf is implicit.
type Histogram struct {
	nameStr, help string
	bounds        []float64
	counts        []atomic.Uint64 // one per bound, plus the +Inf overflow
	sumBits       atomic.Uint64
	count         atomic.Uint64
}

// Histogram registers and returns a histogram over the given bucket upper
// bounds (ascending; nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending", name))
		}
	}
	h := &Histogram{
		nameStr: name,
		help:    help,
		bounds:  append([]float64(nil), bounds...),
		counts:  make([]atomic.Uint64, len(bounds)+1),
	}
	r.add(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (h *Histogram) name() string { return h.nameStr }
func (h *Histogram) write(w *bufio.Writer) {
	header(w, h.nameStr, h.help, "histogram")
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		sample(w, h.nameStr+"_bucket", []string{"le"}, []string{formatValue(b)}, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	sample(w, h.nameStr+"_bucket", []string{"le"}, []string{"+Inf"}, float64(cum))
	sample(w, h.nameStr+"_sum", nil, nil, math.Float64frombits(h.sumBits.Load()))
	sample(w, h.nameStr+"_count", nil, nil, float64(h.count.Load()))
}
