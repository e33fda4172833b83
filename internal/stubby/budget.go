package stubby

import "sync"

// RetryBudget is a token bucket capping retry amplification, the
// mechanism gRPC calls retry throttling. Unbounded retries convert a
// partial outage into a self-sustaining retry storm: the paper's §7
// overload analysis shows amplified attempts arriving exactly when the
// server can least afford them. The budget bounds that feedback loop.
//
// Every attempt outcome feeds the bucket: a failure drains one token, a
// success refunds SuccessCredit (a fraction of a token). Retries are
// permitted only while the bucket holds more than half its capacity, so
// a burst of failures quickly drives the budget into suppression and
// sustained retry volume is bounded by roughly SuccessCredit retries
// per successful call — Cap reports that bound as an amplification
// factor.
//
// A budget is shared: give every channel of a pool (or every channel to
// one backend) the same *RetryBudget so the cap covers the aggregate
// stream, not each connection separately. It is safe for concurrent use.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	credit float64
}

// NewRetryBudget returns a budget holding maxTokens (the burst
// allowance; <=0 selects 10) that refunds successCredit tokens per
// success (<=0 selects 0.1).
func NewRetryBudget(maxTokens, successCredit float64) *RetryBudget {
	if maxTokens <= 0 {
		maxTokens = 10
	}
	if successCredit <= 0 {
		successCredit = 0.1
	}
	return &RetryBudget{tokens: maxTokens, max: maxTokens, credit: successCredit}
}

// onOutcome feeds one attempt outcome into the bucket.
func (b *RetryBudget) onOutcome(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if failed {
		b.tokens--
		if b.tokens < 0 {
			b.tokens = 0
		}
		return
	}
	b.tokens += b.credit
	if b.tokens > b.max {
		b.tokens = b.max
	}
}

// allowRetry reports whether a retry may be attempted now.
func (b *RetryBudget) allowRetry() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens > b.max/2
}

// Tokens returns the current token level.
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// Cap returns the sustained retry-amplification bound the budget
// enforces: attempts per logical call approach at most 1+SuccessCredit
// once the initial burst allowance is spent.
func (b *RetryBudget) Cap() float64 { return 1 + b.credit }
