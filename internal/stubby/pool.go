package stubby

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/trace"
)

// Pool is a client-side channel pool: N connections to one server with a
// pick policy per call. Production RPC stacks multiplex heavily but still
// run several connections per backend to avoid head-of-line blocking on
// one TCP stream; the pool is also the natural place for subsetting.
type Pool struct {
	opts          Options
	addr          string
	serverCluster string

	mu       sync.Mutex
	channels []*Channel
	next     atomic.Uint64

	closed bool
}

// NewPool dials size connections to addr. It fails if no connection can
// be established; partial pools are allowed when at least one dial
// succeeds.
func NewPool(addr, serverCluster string, size int, opts Options) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{opts: opts, addr: addr, serverCluster: serverCluster}
	var firstErr error
	for i := 0; i < size; i++ {
		ch, err := Dial(addr, serverCluster, opts)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		p.channels = append(p.channels, ch)
	}
	if len(p.channels) == 0 {
		return nil, firstErr
	}
	return p, nil
}

// Size returns the number of live channels.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.channels)
}

// pick selects the next channel round-robin.
func (p *Pool) pick() (*Channel, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.channels) == 0 {
		return nil, ErrUnavailable
	}
	return p.channels[int(p.next.Add(1))%len(p.channels)], nil
}

// Addr returns the backend address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// InFlight returns the number of calls awaiting responses across all
// members — the client-side half of the pool's load estimate.
func (p *Pool) InFlight() int {
	p.mu.Lock()
	channels := append([]*Channel(nil), p.channels...)
	p.mu.Unlock()
	n := 0
	for _, ch := range channels {
		n += ch.InFlight()
	}
	return n
}

// ServerLoad returns the backend's most recently piggybacked load report:
// the maximum across members, since each channel's copy goes stale
// independently and the freshest pessimistic signal balances best.
func (p *Pool) ServerLoad() int {
	p.mu.Lock()
	channels := append([]*Channel(nil), p.channels...)
	p.mu.Unlock()
	load := 0
	for _, ch := range channels {
		if l := ch.ServerLoad(); l > load {
			load = l
		}
	}
	return load
}

// Load combines the client-side in-flight count with the server's
// piggybacked report. It implements the loadbalance.Endpoint interface, so
// the same policies that balance simulated machines balance live pools.
func (p *Pool) Load() int {
	return p.InFlight() + p.ServerLoad()
}

// Call issues a unary RPC on one pool member. A channel that died is
// replaced — the dial happens here, before the retry — and the call is
// retried once on another member. An Unavailable reply over a live channel
// (a shed call, an open breaker, an injected fault) is the call's answer:
// the connection carries other calls the server has accepted.
func (p *Pool) Call(ctx context.Context, method string, payload []byte, opts ...CallOption) ([]byte, error) {
	for attempt := 0; attempt < 2; attempt++ {
		ch, err := p.pick()
		if err != nil {
			return nil, err
		}
		out, err := ch.Call(ctx, method, payload, opts...)
		if err == nil {
			return out, nil
		}
		if Code(err) != trace.Unavailable {
			return nil, err
		}
		select {
		case <-ch.closed:
			p.replace(ch)
		default:
			return nil, err
		}
	}
	return nil, ErrUnavailable
}

// CallHedged issues a hedged call where the hedge leg goes to a
// *different* pool member — the cross-replica hedging the paper's §4.4
// describes (a same-server hedge shares the straggler's fate).
func (p *Pool) CallHedged(ctx context.Context, method string, payload []byte, hedgeDelay time.Duration) ([]byte, error) {
	primary, err := p.pick()
	if err != nil {
		return nil, err
	}
	secondary, err := p.pick()
	if err != nil || secondary == primary {
		return primary.CallHedged(ctx, method, payload, hedgeDelay)
	}
	return callHedged(ctx, primary, secondary, method, payload, hedgeDelay)
}

// replace drops a dead channel and dials a replacement. Of the calls that
// saw it die, only the one that removes it dials.
func (p *Pool) replace(dead *Channel) {
	p.mu.Lock()
	i := slices.Index(p.channels, dead)
	if i >= 0 {
		p.channels = slices.Delete(p.channels, i, i+1)
	}
	closed := p.closed
	p.mu.Unlock()
	dead.Close()
	if closed || i < 0 {
		return
	}
	if ch, err := Dial(p.addr, p.serverCluster, p.opts); err == nil {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			ch.Close()
			return
		}
		p.channels = append(p.channels, ch)
		p.mu.Unlock()
	}
}

// Ping measures RTT on one member.
func (p *Pool) Ping(ctx context.Context) (time.Duration, error) {
	ch, err := p.pick()
	if err != nil {
		return 0, err
	}
	return ch.Ping(ctx)
}

// Close shuts down every member.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	channels := p.channels
	p.channels = nil
	p.mu.Unlock()
	for _, ch := range channels {
		ch.Close()
	}
}
