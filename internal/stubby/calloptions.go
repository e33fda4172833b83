package stubby

import "context"

// Per-call options for unary calls and streams. They thread through the
// context so the CallFunc signature — which the retry, hedging, and
// breaker layers compose over — stays unchanged: Channel.Call folds its
// variadic options into the context before entering the invoke chain.

// CallOption adjusts one call or stream.
type CallOption func(*callOpts)

// callOpts is the resolved per-call configuration. Zero values defer to
// the endpoint's Options.
type callOpts struct {
	window        int  // stream credit window; 0 = Options.StreamWindow
	bulkThreshold int  // 0 = Options.BulkThreshold; negative = disabled
	bulkSet       bool // WithBulkLane was given
	bulkOn        bool
}

// WithStreamWindow sets the stream's per-direction credit window in
// bytes. It bounds both the unconsumed bytes the peer may buffer and the
// size of a single stream message. Non-positive values are ignored.
func WithStreamWindow(n int) CallOption {
	return func(o *callOpts) {
		if n > 0 {
			o.window = n
		}
	}
}

// WithBulkThreshold routes this call through the bulk lane if its payload
// is at least bytes long, overriding Options.BulkThreshold. Negative
// disables the bulk lane for this call.
func WithBulkThreshold(bytes int) CallOption {
	return func(o *callOpts) {
		if bytes != 0 {
			o.bulkThreshold = bytes
		}
	}
}

// WithBulkLane forces the bulk lane on or off for this call regardless of
// payload size: on routes any payload through it, off keeps the inline
// envelope path even for large payloads.
func WithBulkLane(enabled bool) CallOption {
	return func(o *callOpts) {
		o.bulkSet = true
		o.bulkOn = enabled
	}
}

type callOptsCtxKey struct{}

// ContextWithCallOptions attaches per-call options to a context, for call
// sites that go through a plain CallFunc (Channel.Intercepted) rather
// than Channel.Call's variadic form.
func ContextWithCallOptions(ctx context.Context, opts ...CallOption) context.Context {
	co := resolveCallOpts(ctx, opts)
	return context.WithValue(ctx, callOptsCtxKey{}, co)
}

// resolveCallOpts folds opts over any options already in ctx.
func resolveCallOpts(ctx context.Context, opts []CallOption) *callOpts {
	var co callOpts
	if prev, ok := ctx.Value(callOptsCtxKey{}).(*callOpts); ok {
		co = *prev
	}
	for _, o := range opts {
		o(&co)
	}
	return &co
}

// useBulkLane decides whether one unary call takes the bulk lane: the
// channel's threshold, overridden per call, with WithBulkLane as a hard
// switch in either direction.
func (c *Channel) useBulkLane(co *callOpts, payloadLen int) bool {
	if co != nil && co.bulkSet {
		return co.bulkOn
	}
	th := c.opts.BulkThreshold
	if co != nil && co.bulkThreshold != 0 {
		th = co.bulkThreshold
	}
	return th > 0 && payloadLen >= th
}
