package stubby

import (
	"context"
	"time"

	"rpcscale/internal/trace"
)

// RetryPolicy configures automatic retries of transient failures.
// Production Stubby retries Unavailable-class errors with exponential
// backoff; errors like NoPermission or InvalidArgument are permanent and
// never retried. The transient set is Unavailable and NoResource;
// DeadlineExceeded is excluded, since the deadline is gone.
type RetryPolicy struct {
	// MaxAttempts bounds total tries (including the first). <=1 disables.
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt.
	BaseBackoff time.Duration
	// MaxBackoff caps the delay.
	MaxBackoff time.Duration
	// Budget, when non-nil, caps retry amplification: every attempt
	// outcome feeds the token bucket and a retry is only issued while
	// the budget allows it. Share one budget across the channels of a
	// pool so the cap covers the aggregate stream.
	Budget *RetryBudget
}

// DefaultRetryPolicy retries transient failures up to 3 attempts.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
	}
}

// retryable reports whether code is in the transient set worth retrying.
func retryable(code trace.ErrorCode) bool {
	return code == trace.Unavailable || code == trace.NoResource
}

// nextBackoff advances an exponential backoff: the delay doubles per
// attempt and saturates at max (when max > 0).
func nextBackoff(cur, max time.Duration) time.Duration {
	next := cur * 2
	if max > 0 && next > max {
		next = max
	}
	return next
}

// callRetried runs the Options.Retry loop around c.call. Each attempt's
// number keys the fault plane's per-attempt decisions; each outcome feeds
// the budget when one is configured.
func (c *Channel) callRetried(ctx context.Context, method string, payload []byte) ([]byte, error) {
	policy, obs := c.opts.Retry, c.opts.Observer
	var lastErr error
	backoff := policy.BaseBackoff
	attempts := max(policy.MaxAttempts, 1)
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, codeToError(cancelCode(ctx))
			}
			backoff = nextBackoff(backoff, policy.MaxBackoff)
		}
		out, err := c.call(ctx, method, payload, uint32(attempt))
		if policy.Budget != nil {
			policy.Budget.onOutcome(err != nil)
		}
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !retryable(Code(err)) {
			return nil, err
		}
		if attempt+1 >= attempts {
			break
		}
		if policy.Budget != nil && !policy.Budget.allowRetry() {
			if obs != nil {
				obs.RetrySuppressed(method)
			}
			return nil, lastErr
		}
		if obs != nil {
			obs.RetryAttempt(method)
		}
	}
	return nil, lastErr
}
