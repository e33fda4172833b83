package telemetry

import (
	"rpcscale/internal/stubby"
)

// The robustness half of the Plane's stubby.Observer surface: the stack's
// retry budget, circuit breakers, and load shedding report into the same
// Monarch DB as the call metrics (Observe, in telemetry.go).
var _ stubby.Observer = (*Plane)(nil)

// RetryAttempt records one retry the stack issued for method.
func (p *Plane) RetryAttempt(method string) {
	p.retriesAttempted.Add(1)
	p.record(aggKey{kind: kindRetry, method: method})
}

// RetrySuppressed records one retry the budget refused for method.
func (p *Plane) RetrySuppressed(method string) {
	p.retriesSuppressed.Add(1)
	p.record(aggKey{kind: kindRetrySuppressed, method: method})
}

// BreakerTransition records one circuit-breaker state change. The
// endpoints land in the metric's from/to labels.
func (p *Plane) BreakerTransition(method string, from, to stubby.BreakerState) {
	p.breakerTransitions.Add(1)
	p.record(aggKey{
		kind: kindBreaker, method: method,
		client: from.String(), server: to.String(),
	})
}

// CallShed records one request the server shed before handling.
func (p *Plane) CallShed(method string) {
	p.shedCalls.Add(1)
	p.record(aggKey{kind: kindShed, method: method})
}

// RetriesAttempted returns the total retries the stack issued.
func (p *Plane) RetriesAttempted() uint64 { return p.retriesAttempted.Load() }

// RetriesSuppressed returns the total retries the budget refused.
func (p *Plane) RetriesSuppressed() uint64 { return p.retriesSuppressed.Load() }

// BreakerTransitions returns the total circuit-breaker state changes.
func (p *Plane) BreakerTransitions() uint64 { return p.breakerTransitions.Load() }

// ShedCalls returns the total requests servers shed under overload.
func (p *Plane) ShedCalls() uint64 { return p.shedCalls.Load() }

// record counts one robustness event in its window aggregate.
func (p *Plane) record(key aggKey) {
	now := p.now()
	p.mu.Lock()
	p.window(key, now).count++
	p.mu.Unlock()
}
