// Package monarch implements an in-memory time-series monitoring database
// in the spirit of Google's Monarch: metrics carry label sets, points are
// either scalar counters/gauges or full latency distributions, samples
// land on a fixed alignment grid (the paper's 30-minute windows), and a
// retention policy bounds history (the paper's 700 days).
//
// The fleet simulator exports per-window counters into a DB, and the
// growth and diurnal analyses (Figs. 1, 18) query it exactly the way the
// paper queried production Monarch.
package monarch

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"rpcscale/internal/stats"
)

// Kind describes how a metric's values combine.
type Kind uint8

// Metric kinds.
const (
	// Counter points accumulate within a window and sum across streams.
	Counter Kind = iota
	// Gauge points overwrite within a window and average across streams.
	Gauge
	// Distribution points carry histograms that merge across streams.
	Distribution
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Distribution:
		return "distribution"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Labels identifies one stream of a metric (e.g. cluster, service,
// method). Label maps are canonicalized internally; callers may reuse and
// mutate maps after the Write returns.
type Labels map[string]string

// canonical renders labels in sorted k=v form for use as a map key.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

// clone copies a label map so the DB owns its keys.
func (l Labels) clone() Labels {
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Matches reports whether l contains every pair in sel.
func (l Labels) Matches(sel Labels) bool {
	for k, v := range sel {
		if l[k] != v {
			return false
		}
	}
	return true
}

// Point is one aligned sample of a stream.
type Point struct {
	At    time.Time
	Value float64     // Counter/Gauge value
	Dist  *stats.Hist // Distribution value (nil otherwise)
}

// Series is one stream: a metric name, a label set, and aligned points in
// time order.
type Series struct {
	Metric string
	Labels Labels
	Points []Point
}

// Last returns the most recent point, or a zero Point when empty.
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// DB is the monitoring database. It is safe for concurrent use.
type DB struct {
	window    time.Duration // alignment grid, e.g. 30 minutes
	retention time.Duration // e.g. 700 days

	mu      sync.RWMutex
	kinds   map[string]Kind
	streams map[string]*stream // key: metric + "|" + labels.canonical()
	latest  time.Time
}

type stream struct {
	metric string
	labels Labels
	points []Point
}

// DefaultWindow is the paper's Monarch sampling window.
const DefaultWindow = 30 * time.Minute

// DefaultRetention is the paper's observation period.
const DefaultRetention = 700 * 24 * time.Hour

// Option configures a DB built with NewDB.
type Option func(*DB)

// WithWindow sets the sampling alignment grid. Non-positive values keep
// the paper's 30-minute default.
func WithWindow(d time.Duration) Option {
	return func(db *DB) {
		if d > 0 {
			db.window = d
		}
	}
}

// WithRetention sets how much history is kept before eviction.
// Non-positive values keep the paper's 700-day default.
func WithRetention(d time.Duration) Option {
	return func(db *DB) {
		if d > 0 {
			db.retention = d
		}
	}
}

// NewDB returns a monitoring DB. With no options it uses the paper's
// 30-minute window and 700-day retention.
func NewDB(opts ...Option) *DB {
	db := &DB{
		window:    DefaultWindow,
		retention: DefaultRetention,
		kinds:     make(map[string]Kind),
		streams:   make(map[string]*stream),
	}
	for _, o := range opts {
		o(db)
	}
	return db
}

// Window returns the alignment grid.
func (db *DB) Window() time.Duration { return db.window }

// Declare registers a metric with its kind. Writing an undeclared metric
// is an error; redeclaring with a different kind is an error.
func (db *DB) Declare(metric string, kind Kind) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if existing, ok := db.kinds[metric]; ok && existing != kind {
		return fmt.Errorf("monarch: metric %q already declared as %v", metric, existing)
	}
	db.kinds[metric] = kind
	return nil
}

// align floors t onto the sampling grid.
func (db *DB) align(t time.Time) time.Time {
	return t.Truncate(db.window)
}

// Write records a scalar sample. Counter samples accumulate within their
// window; gauge samples overwrite.
func (db *DB) Write(metric string, labels Labels, at time.Time, value float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	kind, ok := db.kinds[metric]
	if !ok {
		return fmt.Errorf("monarch: metric %q not declared", metric)
	}
	if kind == Distribution {
		return fmt.Errorf("monarch: metric %q is a distribution; use WriteDist", metric)
	}
	st := db.stream(metric, labels)
	aligned := db.align(at)
	db.advance(aligned)
	p := db.windowPoint(st, aligned)
	if kind == Counter {
		p.Value += value
	} else {
		p.Value = value
	}
	return nil
}

// WriteDist merges a histogram sample into the stream's current window.
func (db *DB) WriteDist(metric string, labels Labels, at time.Time, dist *stats.Hist) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	kind, ok := db.kinds[metric]
	if !ok {
		return fmt.Errorf("monarch: metric %q not declared", metric)
	}
	if kind != Distribution {
		return fmt.Errorf("monarch: metric %q is %v; use Write", metric, kind)
	}
	st := db.stream(metric, labels)
	aligned := db.align(at)
	db.advance(aligned)
	p := db.windowPoint(st, aligned)
	if p.Dist == nil {
		p.Dist = dist.Clone()
	} else {
		p.Dist.Merge(dist)
	}
	return nil
}

// stream finds or creates a stream. Caller holds db.mu.
func (db *DB) stream(metric string, labels Labels) *stream {
	key := metric + "|" + labels.canonical()
	st, ok := db.streams[key]
	if !ok {
		st = &stream{metric: metric, labels: labels.clone()}
		db.streams[key] = st
	}
	return st
}

// windowPoint finds or appends the point for the aligned window. Points
// arrive roughly in time order; out-of-order writes within history are
// located by scan from the tail. Caller holds db.mu.
func (db *DB) windowPoint(st *stream, aligned time.Time) *Point {
	for i := len(st.points) - 1; i >= 0; i-- {
		switch {
		case st.points[i].At.Equal(aligned):
			return &st.points[i]
		case st.points[i].At.Before(aligned):
			// Insert after i.
			st.points = append(st.points, Point{})
			copy(st.points[i+2:], st.points[i+1:])
			st.points[i+1] = Point{At: aligned}
			return &st.points[i+1]
		}
	}
	st.points = append(st.points, Point{})
	copy(st.points[1:], st.points)
	st.points[0] = Point{At: aligned}
	return &st.points[0]
}

// advance updates the retention horizon and evicts expired points.
// Caller holds db.mu.
func (db *DB) advance(at time.Time) {
	if at.After(db.latest) {
		db.latest = at
	}
	horizon := db.latest.Add(-db.retention)
	for _, st := range db.streams {
		cut := 0
		for cut < len(st.points) && st.points[cut].At.Before(horizon) {
			cut++
		}
		if cut > 0 {
			st.points = append(st.points[:0], st.points[cut:]...)
		}
	}
}

// Query returns copies of all streams of a metric whose labels match sel,
// restricted to points in [from, to]. A nil sel matches everything; zero
// times mean unbounded.
func (db *DB) Query(metric string, sel Labels, from, to time.Time) []Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Series
	for _, st := range db.streams {
		if st.metric != metric || !st.labels.Matches(sel) {
			continue
		}
		s := Series{Metric: st.metric, Labels: st.labels.clone()}
		for _, p := range st.points {
			if !from.IsZero() && p.At.Before(from) {
				continue
			}
			if !to.IsZero() && p.At.After(to) {
				continue
			}
			cp := p
			if p.Dist != nil {
				cp.Dist = p.Dist.Clone()
			}
			s.Points = append(s.Points, cp)
		}
		if len(s.Points) > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Labels.canonical() < out[j].Labels.canonical()
	})
	return out
}

// SumAcross element-wise sums scalar series onto a common grid, returning
// one combined series. Useful for fleet-wide totals from per-cluster
// streams.
func SumAcross(series []Series) Series {
	byTime := make(map[time.Time]float64)
	for _, s := range series {
		for _, p := range s.Points {
			byTime[p.At] += p.Value
		}
	}
	out := Series{Metric: "sum"}
	for at, v := range byTime {
		out.Points = append(out.Points, Point{At: at, Value: v})
	}
	sort.Slice(out.Points, func(i, j int) bool { return out.Points[i].At.Before(out.Points[j].At) })
	return out
}

// MergeDistAcross merges distribution series into a single histogram over
// the queried range.
func MergeDistAcross(series []Series) *stats.Hist {
	var merged *stats.Hist
	for _, s := range series {
		for _, p := range s.Points {
			if p.Dist == nil {
				continue
			}
			if merged == nil {
				merged = p.Dist.Clone()
			} else {
				merged.Merge(p.Dist)
			}
		}
	}
	return merged
}
