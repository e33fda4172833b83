package telemetry

import (
	"testing"
	"time"

	"rpcscale/internal/monarch"
	"rpcscale/internal/stubby"
)

// sum adds every point of every series matching the query.
func sum(db *monarch.DB, metric string, labels monarch.Labels, from, to time.Time) float64 {
	var total float64
	for _, s := range db.Query(metric, labels, from, to) {
		for _, pt := range s.Points {
			total += pt.Value
		}
	}
	return total
}

func TestRobustnessMetrics(t *testing.T) {
	clk := &fakeClock{at: time.Unix(10_000_000, 0)}
	p := New(WithClock(clk.now))
	const m = "svc/Get"

	for i := 0; i < 3; i++ {
		p.RetryAttempt(m)
	}
	p.RetrySuppressed(m)
	p.RetrySuppressed(m)
	p.BreakerTransition(m, stubby.BreakerClosed, stubby.BreakerOpen)
	p.CallShed(m)

	if p.RetriesAttempted() != 3 || p.RetriesSuppressed() != 2 ||
		p.BreakerTransitions() != 1 || p.ShedCalls() != 1 {
		t.Fatalf("totals = (%d, %d, %d, %d), want (3, 2, 1, 1)",
			p.RetriesAttempted(), p.RetriesSuppressed(),
			p.BreakerTransitions(), p.ShedCalls())
	}

	db := p.Monarch()
	from, to := clk.at.Add(-time.Hour), clk.at.Add(time.Hour)
	if got := sum(db, MetricRetries, monarch.Labels{"method": m}, from, to); got != 3 {
		t.Fatalf("client/retries = %.0f, want 3", got)
	}
	if got := sum(db, MetricRetriesSuppressed, monarch.Labels{"method": m}, from, to); got != 2 {
		t.Fatalf("client/retries_suppressed = %.0f, want 2", got)
	}
	if got := sum(db, MetricBreakerTransitions, monarch.Labels{
		"method": m, "from": "closed", "to": "open",
	}, from, to); got != 1 {
		t.Fatalf("client/breaker_transitions{closed->open} = %.0f, want 1", got)
	}
	if got := sum(db, MetricShed, monarch.Labels{"method": m}, from, to); got != 1 {
		t.Fatalf("server/shed = %.0f, want 1", got)
	}

	p.Reset()
	if p.RetriesAttempted() != 0 || p.RetriesSuppressed() != 0 ||
		p.BreakerTransitions() != 0 || p.ShedCalls() != 0 {
		t.Fatal("Reset left robustness totals standing")
	}
}

// Apply must install the plane as the stack's Observer unless the caller
// provided one.
func TestApplySetsObserver(t *testing.T) {
	p := New()
	opts := p.Apply(stubby.Options{})
	if opts.Observer != stubby.Observer(p) {
		t.Fatal("Apply did not install the plane as Observer")
	}
	own := &stubby.NopObserver{}
	opts = p.Apply(stubby.Options{Observer: own})
	if opts.Observer != stubby.Observer(own) {
		t.Fatal("Apply overwrote a caller-provided Observer")
	}
}
