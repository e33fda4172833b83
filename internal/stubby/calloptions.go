package stubby

// Per-call options for unary calls and streams. Channel.Call resolves them
// once and hands the result to every attempt it makes.

// CallOption adjusts one call or stream.
type CallOption func(*callOpts)

// callOpts is the resolved per-call configuration. Zero values select the
// defaults.
type callOpts struct {
	window  int  // stream credit window; 0 = defaultStreamWindow
	bulkSet bool // WithBulkLane was given
	bulkOn  bool
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

// WithBulkLane forces the bulk lane on or off for this call's request
// regardless of payload size: on routes any request payload through it,
// off keeps the inline envelope path even for a large one. It does not
// reach the response: the server picks the reply's lane by its size alone.
func WithBulkLane(enabled bool) CallOption {
	return func(o *callOpts) {
		o.bulkSet = true
		o.bulkOn = enabled
	}
}

// resolveCallOpts folds opts into one configuration.
func resolveCallOpts(opts []CallOption) *callOpts {
	co := new(callOpts)
	for _, o := range opts {
		o(co)
	}
	return co
}

// useBulkLane decides whether one unary call's request takes the bulk
// lane: payloads at the default threshold do, with WithBulkLane as a hard
// switch in either direction. co is nil when the call has no options.
func useBulkLane(co *callOpts, payloadLen int) bool {
	if co != nil && co.bulkSet {
		return co.bulkOn
	}
	return payloadLen >= defaultBulkThreshold
}
