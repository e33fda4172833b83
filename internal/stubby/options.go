package stubby

import (
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/faultplane"
	"rpcscale/internal/secure"
	"rpcscale/internal/trace"
)

// Observer receives what the stack reports about itself: every span and
// the robustness layer's events (retries the budget admitted or refused,
// circuit-breaker transitions, calls the server shed). It must be safe for
// concurrent use; any goroutine of the stack may call it. Embed
// NopObserver and override what you need; *telemetry.Plane is the
// canonical implementation.
type Observer interface {
	// Observe receives a trace.Span for every completed call.
	Observe(*trace.Span)

	RetryAttempt(method string)
	RetrySuppressed(method string)
	BreakerTransition(method string, from, to BreakerState)
	CallShed(method string)
}

// NopObserver ignores every event; embed it to implement Observer.
type NopObserver struct{}

func (NopObserver) Observe(*trace.Span)                                  {}
func (NopObserver) RetryAttempt(string)                                  {}
func (NopObserver) RetrySuppressed(string)                               {}
func (NopObserver) BreakerTransition(string, BreakerState, BreakerState) {}
func (NopObserver) CallShed(string)                                      {}

// Options configures a Channel or Server. The zero value is usable; New*
// functions fill in defaults.
type Options struct {
	// Secret is the pre-shared transport secret. Both ends of a
	// connection must agree. Defaults to a process-wide development
	// secret; production would use a real handshake.
	Secret []byte

	// Compression selects payload compression. Payloads below
	// CompressThreshold bytes are sent uncompressed regardless, since
	// small RPCs (the fleet's majority) lose more cycles than bytes, and
	// so is a payload the encoder finds it cannot shrink.
	Compression       compressor.Algorithm
	CompressThreshold int
	CompressorStats   *compressor.Stats
	EncryptionStats   *secure.Stats

	// Collector receives a trace.Span for every completed client call.
	// Servers record no spans. Nil disables tracing.
	Collector *trace.Collector

	// Observer is the observability plane's hook: it receives every span
	// the stack produces (before the Collector, which stores a copy of the
	// span as the observer left it) and the robustness events.
	// This is the single option through which internal/telemetry plugs
	// Monarch export, GWP cycle attribution, and Dapper span retention
	// into the stack; the stack itself stays ignorant of those systems.
	// Nil disables it — an unobserved call builds no span
	// (telemetry.Plane.Apply installs the plane here).
	Observer Observer

	// ClusterName labels spans with the placement of this endpoint.
	ClusterName string

	// Workers is the server handler pool size.
	Workers int

	// Faults attaches a deterministic fault injector to this endpoint:
	// channels consult it with ScopeClient before each attempt, servers
	// with ScopeServer before each handled request. Nil disables
	// injection (the default; production paths never pay for it).
	Faults *faultplane.Injector

	// Retry, when non-nil, makes the channel retry transient failures
	// itself per the policy — the managed-service placement of retry
	// logic, instead of every caller hand-rolling it. Give the policy a
	// Budget to cap retry amplification under overload.
	Retry *RetryPolicy

	// Breaker, when non-nil, gives the channel a circuit breaker with
	// this configuration, tracking state per (channel, method). The
	// breaker sits outside the retry layer: an open circuit fails fast
	// without spending any attempts.
	Breaker *BreakerConfig

	// ShedThreshold enables server-side load shedding: when the receive
	// queue holds at least this many requests, new arrivals are rejected
	// immediately with Unavailable instead of queuing toward a deadline
	// they would miss anyway. 0 disables (the default); the hard
	// queue-full NoResource rejection applies regardless.
	ShedThreshold int
}

var defaultSecret = []byte("rpcscale-development-psk")

func (o *Options) withDefaults() Options {
	out := *o
	if out.Secret == nil {
		out.Secret = defaultSecret
	}
	if out.CompressThreshold == 0 {
		out.CompressThreshold = 512
	}
	if out.Workers == 0 {
		out.Workers = 8
	}
	return out
}

// queueLen bounds every connection's send queue and the server receive
// queue. Queue depth is where the paper's queuing latency lives; a full
// send queue is back-pressure on the caller, a full receive queue turns
// queuing into NoResource errors, as in production overload.
const queueLen = 1024

// defaultDeadline applies to calls and streams whose context has none.
const defaultDeadline = 30 * time.Second

// streamWindow is the per-direction credit window of every stream, in
// bytes, a constant of the protocol both ends use: the peer may have at
// most this many unconsumed payload bytes in flight per stream, and a
// single stream message may not exceed it. The receiver alone decides it;
// nothing on the wire can change it. Large enough that a steady stream of
// the fleet's P99-sized messages keeps the pipe full, small enough to
// bound per-stream receiver memory.
const streamWindow = 256 << 10

// bulkThreshold is the payload size at which unary requests and
// responses switch to the zero-copy bulk lane (chunked, scatter-gather
// writes, no compression); each end picks its own message's lane by size
// alone. 16 KiB sits just above the fleet's P99 request (Fig. 6): the
// envelope path keeps the common case, the bulk lane takes the tail.
const bulkThreshold = 16 << 10
