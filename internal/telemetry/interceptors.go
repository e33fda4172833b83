package telemetry

import (
	"context"
	"time"

	"rpcscale/internal/stats"
	"rpcscale/internal/stubby"
	"rpcscale/internal/trace"
)

// The Plane is the stack's Observer: spans (Observe) and the robustness
// layer's events (robustness.go) land in the one Monarch DB.
var _ stubby.Observer = (*Plane)(nil)

// Apply returns a copy of opts with the plane plugged in as the stack's
// Observer, and the stack's compressor and encryption byte accounting
// landing in the plane's counters (which the GWP attribution calibrates
// against). Fields the caller already set are left alone.
func (p *Plane) Apply(opts stubby.Options) stubby.Options {
	if opts.Observer == nil {
		opts.Observer = p
	}
	if opts.CompressorStats == nil {
		opts.CompressorStats = p.comp
	}
	if opts.EncryptionStats == nil {
		opts.EncryptionStats = p.enc
	}
	return opts
}

// ServerInterceptor returns a server interceptor recording the server's
// own view of each request — volume and handler time, keyed by method and
// the serving cluster — into MetricServerCount / MetricServerApp. This is
// the Monarch surface a service owner watches, as opposed to the
// client-observed spans flowing through Observe.
func (p *Plane) ServerInterceptor(cluster string) stubby.ServerInterceptor {
	return func(ctx context.Context, method string, payload []byte, next stubby.Handler) ([]byte, error) {
		start := p.now()
		out, err := next(ctx, payload)
		p.record(aggKey{kind: kindServer, method: method, server: cluster},
			err == nil, float64(p.now().Sub(start)))
		return out, err
	}
}

// ClientInterceptor returns a client interceptor recording the
// caller-perceived outcome of each logical call into MetricClientCalls /
// MetricClientLatency: one sample per Call invocation, however many
// attempts (retries, hedges) the stack made underneath: Channel.Intercepted
// composes it outside the channel's retry layer (Options.Retry).
func (p *Plane) ClientInterceptor() stubby.ClientInterceptor {
	return func(ctx context.Context, method string, payload []byte, next stubby.CallFunc) ([]byte, error) {
		start := p.now()
		out, err := next(ctx, method, payload)
		code := trace.OK
		if err != nil {
			code = stubby.Code(err)
		}
		p.record(aggKey{kind: kindClient, method: method, code: code},
			err == nil, float64(p.now().Sub(start)))
		return out, err
	}
}

// record folds one interceptor observation into its window aggregate.
func (p *Plane) record(key aggKey, ok bool, latencyNs float64) {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	a := p.window(key, now)
	a.count++
	if ok {
		if a.lat == nil {
			a.lat = stats.NewLatencyHist()
		}
		a.lat.Add(latencyNs)
	}
}

// Since reports how long the plane has been observing (the live analog of
// the paper's observation window).
func (p *Plane) Since() time.Duration {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	return now.Sub(p.start)
}
