package stubby

import (
	"context"
	"time"

	"rpcscale/internal/trace"
)

// CallHedged issues a hedged unary RPC: the primary call goes out
// immediately, and if no response arrives within hedgeDelay a duplicate
// ("hedge") is issued. The first successful response wins and the loser is
// cancelled.
//
// Hedging is the tail-latency strategy of Dean & Barroso's "The Tail at
// Scale"; the paper finds it responsible for most Cancelled errors in the
// fleet (45% of all errors, 55% of wasted cycles, §4.4). Each leg emits
// its own span, so the cancellation economics are visible in the trace
// data exactly as they are in production.
func (c *Channel) CallHedged(ctx context.Context, method string, payload []byte, hedgeDelay time.Duration) ([]byte, error) {
	return callHedged(ctx, c, c, method, payload, hedgeDelay)
}

// callHedged runs one hedged call: the primary leg on primary, the hedge
// leg — if it comes to that — on secondary (the same channel, or another
// replica's: Pool.CallHedged).
func callHedged(ctx context.Context, primary, secondary *Channel, method string, payload []byte, hedgeDelay time.Duration) ([]byte, error) {
	type result struct {
		payload []byte
		err     error
	}
	primCtx, cancelPrim := context.WithCancel(ctx)
	defer cancelPrim()
	results := make(chan result, 2)

	go func() {
		out, err := primary.call(primCtx, method, payload, 0)
		results <- result{out, err}
	}()

	timer := time.NewTimer(hedgeDelay)
	defer timer.Stop()

	var hedgeCancel context.CancelFunc
	hedgeLaunched := false
	launchHedge := func() {
		hedgeLaunched = true
		var hctx context.Context
		hctx, hedgeCancel = context.WithCancel(ctx)
		go func() {
			out, err := secondary.call(hctx, method, payload, hedgeAttemptBit)
			results <- result{out, err}
		}()
	}
	defer func() {
		if hedgeCancel != nil {
			hedgeCancel()
		}
	}()

	var firstErr error
	errSeen := 0
	for {
		select {
		case <-timer.C:
			if !hedgeLaunched {
				launchHedge()
			}
		case r := <-results:
			if r.err == nil {
				// Winner: the deferred cancels stop the other leg.
				return r.payload, nil
			}
			// A losing leg that was cancelled by us is not the caller's
			// error; only surface it if everything fails.
			if firstErr == nil || Code(firstErr) == trace.Cancelled {
				if Code(r.err) != trace.Cancelled || firstErr == nil {
					firstErr = r.err
				}
			}
			errSeen++
			// A primary that fails before the hedge fired fails fast.
			expected := 1
			if hedgeLaunched {
				expected = 2
			}
			if errSeen >= expected {
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, codeToError(cancelCode(ctx))
		}
	}
}

// codeToError maps an outcome code to the canonical error value.
func codeToError(code trace.ErrorCode) error {
	switch code {
	case trace.OK:
		return nil
	case trace.Cancelled:
		return errCancelled
	case trace.DeadlineExceeded:
		return errDeadlineExceeded
	default:
		return &Status{Code: code, Message: code.String()}
	}
}
