package telemetry

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"rpcscale/internal/core"
	"rpcscale/internal/gwp"
	"rpcscale/internal/monarch"
	"rpcscale/internal/stubby"
	"rpcscale/internal/trace"
)

// fakeClock is a settable clock for deterministic window tests.
type fakeClock struct{ at time.Time }

func (f *fakeClock) now() time.Time { return f.at }

// span fabricates a successful client span with the given total latency
// split across stack and application components.
func span(method string, total time.Duration) *trace.Span {
	s := &trace.Span{
		TraceID: 1, SpanID: 1,
		Method: method, Service: strings.SplitN(method, "/", 2)[0],
		ClientCluster: "c1", ServerCluster: "c1",
		RequestBytes: 1000, ResponseBytes: 2000,
	}
	s.Breakdown[trace.ServerApp] = total / 2
	s.Breakdown[trace.ReqProcStack] = total / 4
	s.Breakdown[trace.RespProcStack] = total / 4
	return s
}

func TestObserveExportsMonarch(t *testing.T) {
	clk := &fakeClock{at: time.Unix(10_000_000, 0)}
	p := New(WithClock(clk.now))

	for i := 0; i < 50; i++ {
		p.Observe(span("svc/Get", time.Millisecond))
	}
	bad := span("svc/Get", time.Millisecond)
	bad.Err = trace.Unavailable
	p.Observe(bad)

	db := p.Monarch()
	from, to := clk.at.Add(-time.Hour), clk.at.Add(time.Hour)

	counts := db.Query(MetricRPCCount, monarch.Labels{"method": "svc/Get"}, from, to)
	var calls float64
	for _, s := range counts {
		for _, pt := range s.Points {
			calls += pt.Value
		}
	}
	if calls != 51 {
		t.Fatalf("rpc/count = %.0f, want 51 (errors counted, §2.1)", calls)
	}

	errs := db.Query(MetricRPCErrors, monarch.Labels{"code": "Unavailable"}, from, to)
	if len(errs) != 1 || errs[0].Last().Value != 1 {
		t.Fatalf("rpc/errors{Unavailable} = %v, want one series with value 1", errs)
	}

	lats := db.Query(MetricLatency, monarch.Labels{"method": "svc/Get"}, from, to)
	if len(lats) != 1 {
		t.Fatalf("rpc/latency: %d series, want 1", len(lats))
	}
	d := lats[0].Last().Dist
	if d == nil || d.Count() != 50 {
		t.Fatalf("latency dist count = %v, want 50 (error latency excluded)", d)
	}
	p50 := d.Quantile(0.5)
	if p50 < 0.9e6 || p50 > 1.1e6 {
		t.Fatalf("latency P50 = %.0fns, want ~1ms", p50)
	}

	sizes := db.Query(MetricReqBytes, nil, from, to)
	if len(sizes) != 1 || sizes[0].Last().Dist.Mean() != 1000 {
		t.Fatalf("request size dist wrong: %+v", sizes)
	}
}

// TestEveryDeclaredMetricIsWritten observes every kind of event the plane
// takes, then requires a series for each metric it declares: a metric
// nothing writes fails here.
func TestEveryDeclaredMetricIsWritten(t *testing.T) {
	clk := &fakeClock{at: time.Unix(10_000_000, 0)}
	p := New(WithClock(clk.now))
	const m = "svc/Get"
	p.Observe(span(m, time.Millisecond))
	bad := span(m, time.Millisecond)
	bad.Err = trace.Unavailable
	p.Observe(bad)
	p.RetryAttempt(m)
	p.RetrySuppressed(m)
	p.BreakerTransition(m, stubby.BreakerClosed, stubby.BreakerOpen)
	p.CallShed(m)
	p.Flush()

	db := p.Monarch()
	from, to := clk.at.Add(-time.Hour), clk.at.Add(time.Hour)
	for metric := range declared {
		if len(db.Query(metric, nil, from, to)) == 0 {
			t.Errorf("%s is declared but nothing wrote it", metric)
		}
	}
}

func TestWindowAlignment(t *testing.T) {
	base := time.Unix(0, 0).Add(1000 * time.Hour)
	clk := &fakeClock{at: base.Add(29 * time.Minute)}
	p := New(WithClock(clk.now)) // the paper's 30-minute windows

	p.Observe(span("svc/Get", time.Millisecond)) // lands in window [base, base+30m)
	clk.at = base.Add(31 * time.Minute)
	p.Observe(span("svc/Get", time.Millisecond)) // rolls into the next window

	db := p.Monarch()
	series := db.Query(MetricRPCCount, monarch.Labels{"method": "svc/Get"}, base.Add(-time.Hour), base.Add(2*time.Hour))
	if len(series) != 1 {
		t.Fatalf("got %d series, want 1", len(series))
	}
	pts := series[0].Points
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2 (one per 30m window)", len(pts))
	}
	if !pts[0].At.Equal(base) || !pts[1].At.Equal(base.Add(30*time.Minute)) {
		t.Fatalf("window starts %v, %v; want %v, %v", pts[0].At, pts[1].At, base, base.Add(30*time.Minute))
	}
	if got := pts[1].At.Sub(pts[0].At); got != db.Window() {
		t.Fatalf("point spacing %v != window %v", got, db.Window())
	}
}

func TestAttribution(t *testing.T) {
	p := New()

	// A live span with no split: application gets ServerApp, the tax is
	// spread over the stack components, nothing on the waiting components.
	s := span("svc/Get", 2*time.Millisecond)
	p.Observe(s)
	if !s.HasCPUSplit() {
		t.Fatal("Observe should attribute cycles on spans without a split")
	}
	if got, want := s.CPUByCategory[gwp.Application], float64(s.Breakdown[trace.ServerApp]); got != want {
		t.Fatalf("Application cycles = %v, want handler time %v", got, want)
	}
	var total float64
	for _, v := range s.CPUByCategory {
		total += v
	}
	if total != s.CPUCycles {
		t.Fatalf("CPUCycles %v != sum of categories %v", s.CPUCycles, total)
	}
	if s.CPUByCategory[gwp.Compression] != 0 {
		t.Fatalf("no compressed bytes seen, but Compression got %v cycles", s.CPUByCategory[gwp.Compression])
	}
	if s.CPUByCategory[gwp.Networking] <= 0 || s.CPUByCategory[gwp.RPCLibrary] <= 0 {
		t.Fatal("stack tax should land on Networking and RPCLibrary")
	}

	// Once the stack's compressor reports bytes, compression earns cycles.
	p2 := New()
	p2.CompressorStats().BytesIn.Add(3000) // == payload bytes of one span
	s2 := span("svc/Get", 2*time.Millisecond)
	p2.Observe(s2)
	if s2.CPUByCategory[gwp.Compression] <= 0 {
		t.Fatal("compressed traffic should attribute cycles to Compression")
	}

	// A span that already carries a split (e.g. simulator output) is
	// recorded as-is.
	s3 := span("svc/Get", time.Millisecond)
	s3.CPUByCategory[gwp.Application] = 42
	s3.CPUCycles = 42
	p.Observe(s3)
	if s3.CPUByCategory[gwp.Application] != 42 || s3.CPUCycles != 42 {
		t.Fatal("pre-attributed span was rewritten")
	}

	snap := p.Profiler().Snapshot()
	if snap.Total() <= 0 || snap.TaxShare() <= 0 {
		t.Fatalf("profiler saw nothing: total=%v tax=%v", snap.Total(), snap.TaxShare())
	}
}

func TestReset(t *testing.T) {
	p := New()
	p.Observe(span("svc/Get", time.Millisecond))
	p.Reset()
	if p.Calls() != 0 {
		t.Fatalf("Calls() = %d after Reset", p.Calls())
	}
	if got := p.Profiler().Snapshot().Total(); got != 0 {
		t.Fatalf("profiler total = %v after Reset", got)
	}
	db := p.Monarch()
	if s := db.Query(MetricRPCCount, nil, time.Now().Add(-24*time.Hour), time.Now().Add(24*time.Hour)); len(s) != 0 {
		t.Fatalf("monarch still has %d series after Reset", len(s))
	}
}

// TestLoopbackRoundTrip drives real traffic through the stack with the
// plane plugged in and checks every leg: spans, Monarch series, GWP
// attribution, and the Dataset -> FullReport round trip.
func TestLoopbackRoundTrip(t *testing.T) {
	plane := New()
	opts := plane.Apply(stubby.Options{ClusterName: "test-cl", Workers: 4})

	srv := stubby.NewServer(opts)
	srv.Register("kv.Store/Get", func(ctx context.Context, p []byte) ([]byte, error) {
		return append(p, p...), nil
	})
	srv.Register("kv.Store/Fail", func(ctx context.Context, p []byte) ([]byte, error) {
		return nil, stubby.Errorf(trace.EntityNotFound, "nope")
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	ch, err := stubby.Dial(l.Addr().String(), "test-cl", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	const n = 120
	payload := make([]byte, 256)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := ch.Call(ctx, "kv.Store/Get", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := ch.Call(ctx, "kv.Store/Fail", payload); err == nil {
			t.Fatal("Fail should fail")
		}
	}

	if got := plane.Calls(); got != n+5 {
		t.Fatalf("plane saw %d calls, want %d", got, n+5)
	}
	if got := plane.Errors(); got != 5 {
		t.Fatalf("plane saw %d errors, want 5", got)
	}

	db := plane.Monarch()
	from, to := time.Now().Add(-time.Hour), time.Now().Add(time.Hour)

	// Span surface: per-method latency series keyed by serving cluster.
	lats := db.Query(MetricLatency, monarch.Labels{"method": "kv.Store/Get", "cluster": "test-cl"}, from, to)
	var latCount uint64
	for _, s := range lats {
		for _, pt := range s.Points {
			latCount += pt.Dist.Count()
		}
	}
	if latCount != n {
		t.Fatalf("rpc/latency count = %d, want %d", latCount, n)
	}

	// GWP attribution saw real cycles in tax categories.
	snap := plane.Profiler().Snapshot()
	if snap.TaxCycles() <= 0 {
		t.Fatal("no tax cycles attributed from live traffic")
	}

	// The dataset round trip: live traffic renders the full report.
	ds := plane.Dataset()
	if len(ds.VolumeSpans) == 0 {
		t.Fatal("dataset has no spans")
	}
	if ds.Profile == nil || ds.Profile.Total() <= 0 {
		t.Fatal("dataset carries no CPU profile")
	}
	report := core.FullReport(ds, core.ReportOptions{DB: db})
	for _, want := range []string{
		"RPC completion time", // Fig. 2
		"request size",        // Fig. 6
		"RPC latency tax",     // Fig. 10
		"RPC cycle tax",       // Fig. 20
		"RPC errors",          // Fig. 23
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q section", want)
		}
	}
	if !strings.Contains(report, "EntityNotFound") {
		t.Error("report error analysis missing the live error code")
	}
}

// TestCollectorSeesObservedSpan checks that a span taken by both an
// Options.Collector and the plane carries, in both stores, the Start and
// CPU split the plane stamps on it: the stack observes before it collects,
// and each store keeps its own copy.
func TestCollectorSeesObservedSpan(t *testing.T) {
	plane := New()
	col := trace.New()
	opts := plane.Apply(stubby.Options{ClusterName: "test-cl", Collector: col})
	srv := stubby.NewServer(opts)
	srv.Register("kv.Store/Get", func(ctx context.Context, p []byte) ([]byte, error) { return p, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := stubby.Dial(l.Addr().String(), "test-cl", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := ch.Call(context.Background(), "kv.Store/Get", make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	fromOpts, fromPlane := col.Spans(), plane.Collector().Spans()
	if len(fromOpts) != n || len(fromPlane) != n {
		t.Fatalf("stores hold %d and %d spans, want %d each", len(fromOpts), len(fromPlane), n)
	}
	for i := range fromOpts {
		s := fromOpts[i]
		if s.Start <= 0 || !s.HasCPUSplit() || s.CPUCycles <= 0 {
			t.Fatalf("Options.Collector span %d lacks the plane's stamps: Start=%v CPUCycles=%v split=%v",
				i, s.Start, s.CPUCycles, s.CPUByCategory)
		}
		if !reflect.DeepEqual(s, fromPlane[i]) {
			t.Fatalf("span %d differs between stores:\n%+v\n%+v", i, *s, *fromPlane[i])
		}
	}
}
