package stubby

import (
	"context"
	"sync/atomic"

	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// TraceContext is the tracing state propagated along a call chain: the
// tree-wide trace ID and the span ID of the current RPC. Server handlers
// receive it in their context; client calls read it to link child spans to
// their parent, which is how Dapper reconstructs nested call trees.
type TraceContext struct {
	TraceID trace.TraceID
	SpanID  trace.SpanID
}

type traceCtxKey struct{}

// callIDCtxKey carries the logical call ID a driver assigned to this call.
type callIDCtxKey struct{}

// ContextWithCallID tags a context with a driver-assigned logical call
// ID. The ID travels in the request envelope and keys the fault plane's
// decisions, so a driver that assigns IDs deterministically (rpcbench's
// chaos mode numbers worker w's i-th call w*per+i) gets fault schedules
// that replay identically regardless of goroutine interleaving.
func ContextWithCallID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, callIDCtxKey{}, id)
}

// CallIDFromContext extracts the logical call ID, reporting whether one
// was assigned.
func CallIDFromContext(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(callIDCtxKey{}).(uint64)
	return id, ok
}

// hedgeAttemptBit marks a hedged leg's attempt key so primary and hedge
// draw from independent fault-decision streams.
const hedgeAttemptBit uint32 = 1 << 31

// ContextWithTrace attaches tracing state to a context.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts tracing state, reporting whether any exists.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// childTrace resolves the tracing state of an outgoing call or stream: a
// child span of the caller's (parent is its span ID), or a new root.
func childTrace(ctx context.Context) (tc TraceContext, parent trace.SpanID) {
	tc.SpanID = nextSpanID()
	if p, ok := TraceFromContext(ctx); ok {
		tc.TraceID, parent = p.TraceID, p.SpanID
	} else {
		tc.TraceID = nextTraceID()
	}
	return tc, parent
}

// requestContext is the context a handler runs under: the caller's trace
// state, and the deadline the request envelope carried, if any, under conn,
// the context of the connection it arrived on, which ends with it.
func requestContext(conn context.Context, req *request) (context.Context, context.CancelFunc) {
	ctx := ContextWithTrace(conn, TraceContext{TraceID: req.TraceID, SpanID: req.SpanID})
	if req.Deadline > 0 {
		return context.WithTimeout(ctx, req.Deadline)
	}
	return context.WithCancel(ctx)
}

// Process-wide ID allocation. Span IDs are sequential; trace IDs are the
// mixed output of a counter so that modulo-based head sampling sees a
// uniform stream.
var (
	spanCounter  atomic.Uint64
	traceCounter atomic.Uint64
)

// nextSpanID allocates a unique span ID (never 0: 0 means "no parent").
func nextSpanID() trace.SpanID { return trace.SpanID(spanCounter.Add(1)) }

// nextTraceID allocates a well-mixed unique trace ID.
func nextTraceID() trace.TraceID {
	return trace.TraceID(stats.Mix64(traceCounter.Add(1) + 0x9e3779b97f4a7c15))
}
