package monarch

import (
	"sync"
	"testing"
	"time"

	"rpcscale/internal/stats"
)

var t0 = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(WithWindow(30*time.Minute), WithRetention(700*24*time.Hour))
	for m, k := range map[string]Kind{
		"rpc/count":   Counter,
		"cpu/util":    Gauge,
		"rpc/latency": Distribution,
	} {
		if err := db.Declare(m, k); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCounterAccumulatesWithinWindow(t *testing.T) {
	db := newTestDB(t)
	labels := Labels{"cluster": "aa"}
	for i := 0; i < 5; i++ {
		if err := db.Write("rpc/count", labels, t0.Add(time.Duration(i)*time.Minute), 10); err != nil {
			t.Fatal(err)
		}
	}
	series := db.Query("rpc/count", labels, time.Time{}, time.Time{})
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	if len(series[0].Points) != 1 {
		t.Fatalf("points = %d, want 1 (same window)", len(series[0].Points))
	}
	if got := series[0].Points[0].Value; got != 50 {
		t.Errorf("counter = %v, want 50", got)
	}
}

func TestGaugeOverwritesWithinWindow(t *testing.T) {
	db := newTestDB(t)
	labels := Labels{"cluster": "aa"}
	_ = db.Write("cpu/util", labels, t0, 10)
	_ = db.Write("cpu/util", labels, t0.Add(time.Minute), 70)
	series := db.Query("cpu/util", labels, time.Time{}, time.Time{})
	if got := series[0].Points[0].Value; got != 70 {
		t.Errorf("gauge = %v, want 70 (latest wins)", got)
	}
}

func TestWindowAlignment(t *testing.T) {
	db := newTestDB(t)
	labels := Labels{"cluster": "aa"}
	_ = db.Write("rpc/count", labels, t0.Add(29*time.Minute), 1)
	_ = db.Write("rpc/count", labels, t0.Add(31*time.Minute), 1)
	series := db.Query("rpc/count", labels, time.Time{}, time.Time{})
	pts := series[0].Points
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2 windows", len(pts))
	}
	if !pts[0].At.Equal(t0) || !pts[1].At.Equal(t0.Add(30*time.Minute)) {
		t.Errorf("window starts: %v, %v", pts[0].At, pts[1].At)
	}
}

func TestUndeclaredMetricRejected(t *testing.T) {
	db := newTestDB(t)
	if err := db.Write("nope", nil, t0, 1); err == nil {
		t.Error("undeclared metric accepted")
	}
	if err := db.WriteDist("nope", nil, t0, stats.NewLatencyHist()); err == nil {
		t.Error("undeclared dist metric accepted")
	}
}

func TestKindMismatchRejected(t *testing.T) {
	db := newTestDB(t)
	if err := db.Write("rpc/latency", nil, t0, 1); err == nil {
		t.Error("scalar write to distribution accepted")
	}
	if err := db.WriteDist("rpc/count", nil, t0, stats.NewLatencyHist()); err == nil {
		t.Error("dist write to counter accepted")
	}
	if err := db.Declare("rpc/count", Gauge); err == nil {
		t.Error("redeclare with different kind accepted")
	}
	if err := db.Declare("rpc/count", Counter); err != nil {
		t.Error("identical redeclare should be fine")
	}
}

func TestDistributionMerging(t *testing.T) {
	db := newTestDB(t)
	labels := Labels{"method": "m"}
	h1 := stats.NewLatencyHist()
	h1.Add(1e6)
	h2 := stats.NewLatencyHist()
	h2.Add(2e6)
	_ = db.WriteDist("rpc/latency", labels, t0, h1)
	_ = db.WriteDist("rpc/latency", labels, t0.Add(time.Minute), h2)
	series := db.Query("rpc/latency", labels, time.Time{}, time.Time{})
	if len(series[0].Points) != 1 {
		t.Fatalf("points = %d", len(series[0].Points))
	}
	if got := series[0].Points[0].Dist.Count(); got != 2 {
		t.Errorf("merged count = %d", got)
	}
}

func TestQueryLabelSelector(t *testing.T) {
	db := newTestDB(t)
	_ = db.Write("rpc/count", Labels{"cluster": "aa", "svc": "s1"}, t0, 1)
	_ = db.Write("rpc/count", Labels{"cluster": "bb", "svc": "s1"}, t0, 2)
	_ = db.Write("rpc/count", Labels{"cluster": "aa", "svc": "s2"}, t0, 4)

	if got := len(db.Query("rpc/count", nil, time.Time{}, time.Time{})); got != 3 {
		t.Errorf("nil selector matched %d", got)
	}
	if got := len(db.Query("rpc/count", Labels{"cluster": "aa"}, time.Time{}, time.Time{})); got != 2 {
		t.Errorf("cluster=aa matched %d", got)
	}
	if got := len(db.Query("rpc/count", Labels{"cluster": "aa", "svc": "s2"}, time.Time{}, time.Time{})); got != 1 {
		t.Errorf("two-label selector matched %d", got)
	}
	if got := len(db.Query("rpc/count", Labels{"cluster": "zz"}, time.Time{}, time.Time{})); got != 0 {
		t.Errorf("absent selector matched %d", got)
	}
}

func TestQueryTimeRange(t *testing.T) {
	db := newTestDB(t)
	labels := Labels{"c": "x"}
	for d := 0; d < 10; d++ {
		_ = db.Write("rpc/count", labels, t0.Add(time.Duration(d)*24*time.Hour), 1)
	}
	from := t0.Add(2 * 24 * time.Hour)
	to := t0.Add(5 * 24 * time.Hour)
	series := db.Query("rpc/count", labels, from, to)
	if got := len(series[0].Points); got != 4 {
		t.Errorf("range points = %d, want 4", got)
	}
}

func TestRetentionEviction(t *testing.T) {
	db := NewDB(WithWindow(30*time.Minute), WithRetention(10*24*time.Hour))
	_ = db.Declare("m", Counter)
	labels := Labels{"c": "x"}
	_ = db.Write("m", labels, t0, 1)
	_ = db.Write("m", labels, t0.Add(20*24*time.Hour), 1) // advances horizon past t0
	series := db.Query("m", labels, time.Time{}, time.Time{})
	if got := len(series[0].Points); got != 1 {
		t.Errorf("points after retention = %d, want 1", got)
	}
	if !series[0].Points[0].At.Equal(t0.Add(20 * 24 * time.Hour).Truncate(30 * time.Minute)) {
		t.Error("wrong point survived retention")
	}
}

func TestOutOfOrderWrites(t *testing.T) {
	db := newTestDB(t)
	labels := Labels{"c": "x"}
	_ = db.Write("rpc/count", labels, t0.Add(2*time.Hour), 1)
	_ = db.Write("rpc/count", labels, t0, 2)                // before existing
	_ = db.Write("rpc/count", labels, t0.Add(time.Hour), 4) // between
	pts := db.Query("rpc/count", labels, time.Time{}, time.Time{})[0].Points
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if !pts[i].At.After(pts[i-1].At) {
			t.Fatalf("points out of order: %v", pts)
		}
	}
	if pts[0].Value != 2 || pts[1].Value != 4 || pts[2].Value != 1 {
		t.Errorf("values = %v %v %v", pts[0].Value, pts[1].Value, pts[2].Value)
	}
}

func TestQueryReturnsCopies(t *testing.T) {
	db := newTestDB(t)
	labels := Labels{"c": "x"}
	h := stats.NewLatencyHist()
	h.Add(5e6)
	_ = db.WriteDist("rpc/latency", labels, t0, h)
	got := db.Query("rpc/latency", labels, time.Time{}, time.Time{})
	got[0].Points[0].Dist.Add(1e6) // mutate the copy
	again := db.Query("rpc/latency", labels, time.Time{}, time.Time{})
	if again[0].Points[0].Dist.Count() != 1 {
		t.Error("query returned a live reference, not a copy")
	}
}

func TestSumAcross(t *testing.T) {
	a := Series{Points: []Point{{At: t0, Value: 1}, {At: t0.Add(time.Hour), Value: 2}}}
	b := Series{Points: []Point{{At: t0, Value: 10}}}
	sum := SumAcross([]Series{a, b})
	if len(sum.Points) != 2 {
		t.Fatalf("points = %d", len(sum.Points))
	}
	if sum.Points[0].Value != 11 || sum.Points[1].Value != 2 {
		t.Errorf("sum = %v", sum.Points)
	}
}

func TestMergeDistAcross(t *testing.T) {
	h1, h2 := stats.NewLatencyHist(), stats.NewLatencyHist()
	h1.Add(1e6)
	h2.Add(3e6)
	merged := MergeDistAcross([]Series{
		{Points: []Point{{At: t0, Dist: h1}}},
		{Points: []Point{{At: t0, Dist: h2}, {At: t0.Add(time.Hour)}}}, // nil-dist point skipped
	})
	if merged.Count() != 2 {
		t.Errorf("merged count = %d", merged.Count())
	}
}

func TestConcurrentWrites(t *testing.T) {
	db := newTestDB(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			labels := Labels{"cluster": string(rune('a' + g))}
			for i := 0; i < 500; i++ {
				_ = db.Write("rpc/count", labels, t0.Add(time.Duration(i)*time.Minute), 1)
			}
		}(g)
	}
	wg.Wait()
	series := db.Query("rpc/count", nil, time.Time{}, time.Time{})
	if len(series) != 8 {
		t.Fatalf("series = %d", len(series))
	}
	var total float64
	for _, s := range series {
		for _, p := range s.Points {
			total += p.Value
		}
	}
	if total != 4000 {
		t.Errorf("total = %v, want 4000", total)
	}
}

func TestLabelsCanonicalOrderInsensitive(t *testing.T) {
	a := Labels{"x": "1", "y": "2"}
	b := Labels{"y": "2", "x": "1"}
	if a.canonical() != b.canonical() {
		t.Error("canonical form depends on insertion order")
	}
}

func TestSeriesLast(t *testing.T) {
	var s Series
	if !s.Last().At.IsZero() {
		t.Error("empty Last should be zero")
	}
	s.Points = []Point{{At: t0, Value: 1}, {At: t0.Add(time.Hour), Value: 9}}
	if s.Last().Value != 9 {
		t.Error("Last wrong")
	}
}

func TestKindString(t *testing.T) {
	if Counter.String() != "counter" || Gauge.String() != "gauge" || Distribution.String() != "distribution" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should format")
	}
}
