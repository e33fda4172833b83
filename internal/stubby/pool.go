package stubby

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/trace"
)

// Pool is a client-side channel pool: N connections to one server, each a
// Channel, with calls and streams spread across them round-robin.
// Production RPC stacks multiplex heavily but still run several
// connections per backend to avoid head-of-line blocking on one TCP
// stream; the pool is also the natural place for subsetting. A member
// found dead when it is picked is replaced then and there, whichever
// method picked it.
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

// size returns the number of live members.
func (p *Pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ch := range p.channels {
		if !ch.dead() {
			n++
		}
	}
	return n
}

// pick returns the member at round-robin position n. A member found dead
// is dropped and redialed by the caller that finds it, outside the lock;
// if the redial fails the pool is one member smaller and the member now
// at position n is tried.
func (p *Pool) pick(n uint64) (*Channel, error) {
	for {
		p.mu.Lock()
		if p.closed || len(p.channels) == 0 {
			p.mu.Unlock()
			return nil, errUnavailable
		}
		i := int(n % uint64(len(p.channels)))
		ch := p.channels[i]
		if !ch.dead() {
			p.mu.Unlock()
			return ch, nil
		}
		p.channels = slices.Delete(p.channels, i, i+1)
		p.mu.Unlock()
		ch.Close()
		fresh, err := Dial(p.addr, p.serverCluster, p.opts)
		if err != nil {
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			fresh.Close()
			return nil, errUnavailable
		}
		p.channels = append(p.channels, fresh)
		p.mu.Unlock()
		return fresh, nil
	}
}

// Addr returns the backend address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// inFlight returns the number of calls awaiting responses across all
// members — the client-side half of the pool's load estimate.
func (p *Pool) inFlight() int {
	p.mu.Lock()
	channels := append([]*Channel(nil), p.channels...)
	p.mu.Unlock()
	n := 0
	for _, ch := range channels {
		n += ch.inFlight()
	}
	return n
}

// reportedLoad returns the backend's most recently piggybacked load report:
// the maximum across members, since each channel's copy goes stale
// independently and the freshest pessimistic signal balances best.
func (p *Pool) reportedLoad() int {
	p.mu.Lock()
	channels := append([]*Channel(nil), p.channels...)
	p.mu.Unlock()
	load := 0
	for _, ch := range channels {
		if l := ch.reportedLoad(); l > load {
			load = l
		}
	}
	return load
}

// Load combines the client-side in-flight count with the server's
// piggybacked report. It implements the loadbalance.Endpoint interface, so
// the same policies that balance simulated machines balance live pools.
func (p *Pool) Load() int {
	return p.inFlight() + p.reportedLoad()
}

// Call issues a unary RPC on the next pool member. If that member dies
// under the call, the call is retried once on the next; an Unavailable
// reply over a live channel (a shed call, an open breaker, an injected
// fault) is the call's answer: the connection carries other calls the
// server has accepted.
func (p *Pool) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		ch, err := p.pick(p.next.Add(1))
		if err != nil {
			return nil, err
		}
		out, err := ch.Call(ctx, method, payload)
		if err == nil || attempt == 1 || Code(err) != trace.Unavailable || !ch.dead() {
			return out, err
		}
	}
}

// CallHedged issues a hedged call whose hedge leg goes to the member after
// the primary's — the cross-replica hedging the paper's §4.4 describes (a
// same-server hedge shares the straggler's fate).
func (p *Pool) CallHedged(ctx context.Context, method string, payload []byte, hedgeDelay time.Duration) ([]byte, error) {
	n := p.next.Add(1)
	primary, err := p.pick(n)
	if err != nil {
		return nil, err
	}
	secondary, err := p.pick(n + 1)
	if err != nil || secondary == primary {
		return primary.CallHedged(ctx, method, payload, hedgeDelay)
	}
	return callHedged(ctx, primary, secondary, method, payload, hedgeDelay)
}

// OpenStream opens a stream on the next pool member, so a pool spreads its
// streams across its connections the way Call spreads calls.
func (p *Pool) OpenStream(ctx context.Context, method string) (*Stream, error) {
	ch, err := p.pick(p.next.Add(1))
	if err != nil {
		return nil, err
	}
	return ch.OpenStream(ctx, method)
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
