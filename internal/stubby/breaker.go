package stubby

import (
	"sync"
	"time"

	"rpcscale/internal/trace"
)

// BreakerState is the circuit breaker's position.
type BreakerState uint8

// Circuit breaker states.
const (
	// BreakerClosed passes calls through, counting failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails calls fast without touching the network.
	BreakerOpen
	// BreakerHalfOpen admits limited probes to test recovery.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a circuit breaker. The zero value selects the
// defaults noted on each field.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// circuit (default 5).
	FailureThreshold int
	// Cooldown is how long an open circuit waits before admitting a
	// half-open probe (default 1s). One successful probe closes the
	// circuit again; a failed one reopens it.
	Cooldown time.Duration

	// now substitutes the clock in tests.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// trips reports whether code counts as a failure: the overload set,
// Unavailable, NoResource and DeadlineExceeded.
func trips(code trace.ErrorCode) bool {
	return code == trace.Unavailable || code == trace.NoResource || code == trace.DeadlineExceeded
}

// errCircuitOpen is returned (wrapped in a *Status) when the breaker
// fails a call fast.
var errCircuitOpen = &Status{Code: trace.Unavailable, Message: "circuit breaker open"}

// Breaker is a per-method circuit breaker: each method tracked by one
// Breaker trips independently, since production incidents are usually
// method- or service-scoped, not channel-scoped. Every channel with
// Options.Breaker set has its own (Channel.Breaker), which gives the
// per-(channel, method) granularity the paper's managed-RPC framing
// calls for. It is safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig
	obs Observer

	mu      sync.Mutex
	methods map[string]*methodBreaker
}

type methodBreaker struct {
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

// newBreaker returns a breaker; obs (optional) observes state
// transitions.
func newBreaker(cfg BreakerConfig, obs Observer) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), obs: obs, methods: make(map[string]*methodBreaker)}
}

// State returns the current state for a method.
func (b *Breaker) State(method string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m := b.methods[method]; m != nil {
		return m.state
	}
	return BreakerClosed
}

// allow reports whether a call to method may proceed; when it returns
// false the caller fails fast with errCircuitOpen.
func (b *Breaker) allow(method string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.method(method)
	switch m.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.now().Sub(m.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.transition(method, m, BreakerHalfOpen)
		m.probing = true
		return true
	default: // BreakerHalfOpen
		if m.probing {
			return false // one probe at a time
		}
		m.probing = true
		return true
	}
}

// record feeds one call outcome for method into the breaker.
func (b *Breaker) record(method string, err error) {
	code := Code(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.method(method)
	failed := err != nil && trips(code)
	switch m.state {
	case BreakerClosed:
		if !failed {
			m.failures = 0
			return
		}
		m.failures++
		if m.failures >= b.cfg.FailureThreshold {
			b.transition(method, m, BreakerOpen)
			m.openedAt = b.cfg.now()
			m.failures = 0
		}
	case BreakerHalfOpen:
		m.probing = false
		if failed {
			b.transition(method, m, BreakerOpen)
			m.openedAt = b.cfg.now()
			return
		}
		b.transition(method, m, BreakerClosed)
		m.failures = 0
	case BreakerOpen:
		// A straggler from before the trip; the cooldown clock stands.
	}
}

// method returns (creating if needed) the per-method state. Caller
// holds b.mu.
func (b *Breaker) method(name string) *methodBreaker {
	m := b.methods[name]
	if m == nil {
		m = &methodBreaker{}
		b.methods[name] = m
	}
	return m
}

// transition flips the state and notifies the observer. Caller holds
// b.mu; the observer must not call back into the breaker.
func (b *Breaker) transition(method string, m *methodBreaker, to BreakerState) {
	from := m.state
	m.state = to
	if b.obs != nil {
		b.obs.BreakerTransition(method, from, to)
	}
}
