package trace

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mkBreakdown(vals ...time.Duration) Breakdown {
	var b Breakdown
	copy(b[:], vals)
	return b
}

func TestBreakdownTotals(t *testing.T) {
	var b Breakdown
	for i := range b {
		b[i] = time.Duration(i+1) * time.Millisecond
	}
	if got, want := b.Total(), 45*time.Millisecond; got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
	if got, want := b[ServerApp], 5*time.Millisecond; got != want {
		t.Errorf("ServerApp = %v, want %v", got, want)
	}
	if got, want := b.Tax(), 40*time.Millisecond; got != want {
		t.Errorf("Tax = %v, want %v", got, want)
	}
	// Queue = components 0,3,5,8 = 1+4+6+9 = 20ms.
	if got, want := b.Queue(), 20*time.Millisecond; got != want {
		t.Errorf("Queue = %v, want %v", got, want)
	}
	// Stack = 2+7 = 9ms; Wire = 3+8 = 11ms.
	if got, want := b.Stack(), 9*time.Millisecond; got != want {
		t.Errorf("Stack = %v, want %v", got, want)
	}
	if got, want := b.Wire(), 11*time.Millisecond; got != want {
		t.Errorf("Wire = %v, want %v", got, want)
	}
	if got := b.TaxRatio(); math.Abs(got-40.0/45.0) > 1e-12 {
		t.Errorf("TaxRatio = %v", got)
	}
}

func TestBreakdownGroupsPartitionTotal(t *testing.T) {
	// Queue + Stack + Wire + App must always equal Total.
	f := func(vals [9]int32) bool {
		var b Breakdown
		for i, v := range vals {
			if v < 0 {
				v = -v
			}
			b[i] = time.Duration(v)
		}
		return b.Queue()+b.Stack()+b.Wire()+b[ServerApp] == b.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBreakdownDominant(t *testing.T) {
	var b Breakdown
	b[ServerApp] = 10 * time.Millisecond
	b[ReqNetworkWire] = 3 * time.Millisecond
	if got := b.Dominant(); got != ServerApp {
		t.Errorf("Dominant = %v", got)
	}
	b[ClientRecvQueue] = 20 * time.Millisecond
	if got := b.Dominant(); got != ClientRecvQueue {
		t.Errorf("Dominant = %v", got)
	}
}

func TestBreakdownZeroTaxRatio(t *testing.T) {
	var b Breakdown
	if b.TaxRatio() != 0 {
		t.Error("zero breakdown should have zero tax ratio")
	}
}

func TestBreakdownAddScale(t *testing.T) {
	a := mkBreakdown(2*time.Millisecond, 4*time.Millisecond)
	b := mkBreakdown(4*time.Millisecond, 8*time.Millisecond)
	a.Add(&b)
	a.Scale(3)
	if a[0] != 2*time.Millisecond || a[1] != 4*time.Millisecond {
		t.Errorf("Add/Scale gave %v", a[:2])
	}
	a.Scale(0) // must be no-op
	if a[0] != 2*time.Millisecond {
		t.Error("Scale(0) modified breakdown")
	}
}

func TestComponentNames(t *testing.T) {
	if ServerApp.String() != "ServerApp" {
		t.Errorf("name = %q", ServerApp.String())
	}
	if ServerApp.Label() != "Server Application" {
		t.Errorf("label = %q", ServerApp.Label())
	}
	if Component(99).String() == "" || Component(-1).String() == "" {
		t.Error("out-of-range components should still format")
	}
	if len(Components()) != NumComponents {
		t.Error("Components() length mismatch")
	}
}

func TestErrorCodeStrings(t *testing.T) {
	if OK.String() != "OK" || Cancelled.String() != "Cancelled" {
		t.Error("error names wrong")
	}
	if OK.IsError() {
		t.Error("OK should not be an error")
	}
	if !Cancelled.IsError() {
		t.Error("Cancelled should be an error")
	}
	if ErrorCode(200).String() == "" {
		t.Error("unknown code should format")
	}
}

func TestCollectorSampling(t *testing.T) {
	c := New(WithSampleEvery(10))
	for id := TraceID(0); id < 100; id++ {
		c.Collect(&Span{TraceID: id, SpanID: 1})
	}
	if c.Seen() != 100 {
		t.Errorf("seen = %d", c.Seen())
	}
	if got := len(c.Spans()); got != 10 {
		t.Errorf("sampled spans = %d, want 10", got)
	}
}

func TestCollectorCapacity(t *testing.T) {
	c := New(WithCapacity(5))
	for id := TraceID(0); id < 10; id++ {
		c.Collect(&Span{TraceID: id, SpanID: 1})
	}
	if got := len(c.Spans()); got != 5 {
		t.Errorf("retained = %d, want 5", got)
	}
	if c.Overflow() != 5 {
		t.Errorf("overflow = %d", c.Overflow())
	}
}

func TestCollectorErrorCounting(t *testing.T) {
	c := New()
	c.Collect(&Span{TraceID: 1, SpanID: 1, Err: OK})
	c.Collect(&Span{TraceID: 2, SpanID: 1, Err: Cancelled})
	c.Collect(&Span{TraceID: 3, SpanID: 1, Err: EntityNotFound})
	if c.ErrorsSeen() != 2 {
		t.Errorf("errors = %d", c.ErrorsSeen())
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Collect(&Span{TraceID: TraceID(g*1000 + i), SpanID: 1})
			}
		}(g)
	}
	wg.Wait()
	if c.Seen() != 8000 || len(c.Spans()) != 8000 {
		t.Errorf("seen=%d retained=%d", c.Seen(), len(c.Spans()))
	}
}

func TestCollectorReset(t *testing.T) {
	c := New()
	c.Collect(&Span{TraceID: 1, SpanID: 1, Err: Cancelled})
	c.Reset()
	if c.Seen() != 0 || c.ErrorsSeen() != 0 || len(c.Spans()) != 0 {
		t.Error("reset incomplete")
	}
}

func TestCollectorSpansRebuildGraph(t *testing.T) {
	c := New()
	for _, s := range buildSpanTree() {
		c.Collect(s)
	}
	graphs := BuildGraphs(c.Spans())
	if len(graphs) != 1 || graphs[0].Spans != 5 {
		t.Errorf("graphs = %+v", graphs)
	}
}

func TestSpanHelpers(t *testing.T) {
	s := &Span{ClientCluster: "x", ServerCluster: "x"}
	if !s.SameCluster() {
		t.Error("same cluster not detected")
	}
	s.ServerCluster = "y"
	if s.SameCluster() {
		t.Error("cross cluster not detected")
	}
	var b Breakdown
	b[ServerApp] = 5 * time.Millisecond
	s.Breakdown = b
	if s.Latency() != 5*time.Millisecond {
		t.Error("Latency helper wrong")
	}
}
