package stubby

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpcscale/internal/faultplane"
	"rpcscale/internal/trace"
)

// recordingObserver tallies robustness events for assertions.
type recordingObserver struct {
	NopObserver
	mu          sync.Mutex
	retries     int
	suppressed  int
	shed        int
	transitions []string
}

func (o *recordingObserver) RetryAttempt(string)    { o.mu.Lock(); o.retries++; o.mu.Unlock() }
func (o *recordingObserver) RetrySuppressed(string) { o.mu.Lock(); o.suppressed++; o.mu.Unlock() }
func (o *recordingObserver) CallShed(string)        { o.mu.Lock(); o.shed++; o.mu.Unlock() }
func (o *recordingObserver) BreakerTransition(method string, from, to BreakerState) {
	o.mu.Lock()
	o.transitions = append(o.transitions, from.String()+">"+to.String())
	o.mu.Unlock()
}

// --- retry budget ---

// A failing backend must exhaust the budget: after the burst allowance
// drains below half, every further retry is suppressed.
func TestRetryBudgetExhaustion(t *testing.T) {
	var attempts atomic.Uint64
	budget := NewRetryBudget(4, 0.1) // retries allowed while tokens > 2
	obs := &recordingObserver{}
	policy := RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, Budget: budget}
	ch, _ := testSetup(t, Options{Retry: &policy, Observer: obs}, map[string]Handler{
		"svc/Fail": func(ctx context.Context, p []byte) ([]byte, error) {
			attempts.Add(1)
			return nil, errUnavailable
		},
	})

	for i := 0; i < 20; i++ {
		if _, err := ch.Call(context.Background(), "svc/Fail", nil); err == nil {
			t.Fatal("expected failure")
		}
	}
	// Every failure costs one token: the 4-token budget admits at most 2
	// retries (4 -> 3 -> 2, then tokens ≤ max/2) and suppresses the rest.
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.retries > 2 {
		t.Fatalf("budget admitted %d retries, want <= 2", obs.retries)
	}
	if obs.suppressed == 0 {
		t.Fatal("budget suppressed no retries under sustained failure")
	}
	if got := attempts.Load(); got != 20+uint64(obs.retries) {
		t.Fatalf("backend saw %d attempts, want %d", got, 20+obs.retries)
	}
}

// Successes refund fractional tokens, re-admitting retries slowly — the
// sustained amplification cap.
func TestRetryBudgetRefund(t *testing.T) {
	b := NewRetryBudget(4, 0.5)
	for i := 0; i < 10; i++ {
		b.onOutcome(true) // drain well past half
	}
	if b.allowRetry() {
		t.Fatal("drained budget should refuse retries")
	}
	for i := 0; i < 5; i++ {
		b.onOutcome(false) // 5 successes * 0.5 = 2.5 tokens > max/2
	}
	if !b.allowRetry() {
		t.Fatal("refunded budget should admit a retry")
	}
	if b.Cap() != 1.5 {
		t.Fatalf("Cap() = %v, want 1.5", b.Cap())
	}
}

// --- backoff ---

// Backoff doubles per attempt and saturates at the cap.
func TestBackoffCap(t *testing.T) {
	cur := 2 * time.Millisecond
	var seen []time.Duration
	for i := 0; i < 6; i++ {
		seen = append(seen, cur)
		cur = nextBackoff(cur, 16*time.Millisecond)
	}
	want := []time.Duration{2, 4, 8, 16, 16, 16}
	for i, w := range want {
		if seen[i] != w*time.Millisecond {
			t.Fatalf("backoff[%d] = %v, want %v", i, seen[i], w*time.Millisecond)
		}
	}
	// No cap: keeps doubling.
	if got := nextBackoff(time.Second, 0); got != 2*time.Second {
		t.Fatalf("uncapped backoff = %v, want 2s", got)
	}
}

// --- circuit breaker ---

// The full open -> half-open -> closed cycle, on a virtual clock.
func TestBreakerCycle(t *testing.T) {
	now := time.Unix(0, 0)
	obs := &recordingObserver{}
	b := newBreaker(BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         time.Second,
		now:              func() time.Time { return now },
	}, obs)
	const m = "svc/M"

	// Closed: failures below threshold keep it closed; a success resets.
	for i := 0; i < 2; i++ {
		b.record(m, errUnavailable)
	}
	b.record(m, nil)
	if b.State(m) != BreakerClosed {
		t.Fatalf("state after reset = %v", b.State(m))
	}

	// Threshold consecutive failures open the circuit.
	for i := 0; i < 3; i++ {
		if !b.allow(m) {
			t.Fatal("closed breaker refused a call")
		}
		b.record(m, errUnavailable)
	}
	if b.State(m) != BreakerOpen {
		t.Fatalf("state after %d failures = %v", 3, b.State(m))
	}
	if b.allow(m) {
		t.Fatal("open breaker admitted a call before cooldown")
	}

	// Cooldown elapses: one half-open probe at a time.
	now = now.Add(time.Second)
	if !b.allow(m) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.State(m) != BreakerHalfOpen {
		t.Fatalf("state during probe = %v", b.State(m))
	}
	if b.allow(m) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe fails: back to open, cooldown restarts.
	b.record(m, errUnavailable)
	if b.State(m) != BreakerOpen {
		t.Fatalf("state after failed probe = %v", b.State(m))
	}
	if b.allow(m) {
		t.Fatal("re-opened breaker admitted a call")
	}

	// Second cooldown: one successful probe closes it.
	now = now.Add(time.Second)
	if !b.allow(m) {
		t.Fatal("probe refused")
	}
	b.record(m, nil)
	if b.State(m) != BreakerClosed {
		t.Fatalf("state after a successful probe = %v", b.State(m))
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	want := []string{
		"closed>open", "open>half-open", "half-open>open",
		"open>half-open", "half-open>closed",
	}
	if len(obs.transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", obs.transitions, want)
	}
	for i := range want {
		if obs.transitions[i] != want[i] {
			t.Fatalf("transition[%d] = %q, want %q", i, obs.transitions[i], want[i])
		}
	}
}

// Permanent errors (outside the overload set) must not trip the breaker.
func TestBreakerIgnoresPermanentErrors(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 2}, nil)
	for i := 0; i < 10; i++ {
		b.record("m", &Status{Code: trace.InvalidArgument, Message: "bad"})
	}
	if b.State("m") != BreakerClosed {
		t.Fatalf("breaker tripped on permanent errors: %v", b.State("m"))
	}
}

// A channel with Options.Breaker fails fast once the backend trips it.
func TestChannelIntegratedBreaker(t *testing.T) {
	var handled atomic.Uint64
	opts := Options{
		Breaker: &BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour},
	}
	ch, _ := testSetup(t, opts, map[string]Handler{
		"svc/Fail": func(ctx context.Context, p []byte) ([]byte, error) {
			handled.Add(1)
			return nil, errUnavailable
		},
	})
	for i := 0; i < 10; i++ {
		if _, err := ch.Call(context.Background(), "svc/Fail", nil); err == nil {
			t.Fatal("expected failure")
		}
	}
	if ch.Breaker().State("svc/Fail") != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", ch.Breaker().State("svc/Fail"))
	}
	if got := handled.Load(); got != 3 {
		t.Fatalf("backend saw %d calls after trip, want 3", got)
	}
}

// The breaker sits outside the retry loop: it records one outcome per
// logical call, however many attempts that call made, and once open it
// fails a call before any attempt reaches the backend.
func TestBreakerOutsideRetry(t *testing.T) {
	var handled atomic.Uint64
	policy := RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond}
	opts := Options{
		Retry:   &policy,
		Breaker: &BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
	}
	ch, _ := testSetup(t, opts, map[string]Handler{
		"svc/Fail": func(ctx context.Context, p []byte) ([]byte, error) {
			handled.Add(1)
			return nil, errUnavailable
		},
	})
	call := func() error {
		_, err := ch.Call(context.Background(), "svc/Fail", nil)
		return err
	}
	for i, want := range []BreakerState{BreakerClosed, BreakerOpen} {
		if Code(call()) != trace.Unavailable {
			t.Fatalf("call %d: want Unavailable", i)
		}
		if got := handled.Load(); got != uint64(3*(i+1)) {
			t.Fatalf("after call %d the backend saw %d attempts, want %d", i, got, 3*(i+1))
		}
		if got := ch.Breaker().State("svc/Fail"); got != want {
			t.Fatalf("after call %d the breaker is %v, want %v", i, got, want)
		}
	}
	if err := call(); err != errCircuitOpen {
		t.Fatalf("open breaker: got %v, want errCircuitOpen", err)
	}
	if got := handled.Load(); got != 6 {
		t.Fatalf("open breaker let the backend see %d attempts, want 6", got)
	}
}

// --- load shedding ---

// With a shed threshold and a stalled worker pool, excess arrivals are
// rejected Unavailable and counted by the observer.
func TestLoadShedding(t *testing.T) {
	obs := &recordingObserver{}
	release := make(chan struct{})
	opts := Options{
		Workers:       1,
		ShedThreshold: 2,
		Observer:      obs,
	}
	ch, _ := testSetup(t, opts, map[string]Handler{
		"svc/Slow": func(ctx context.Context, p []byte) ([]byte, error) {
			<-release
			return p, nil
		},
	})
	defer close(release)

	var wg sync.WaitGroup
	var shedErrs, otherErrs atomic.Uint64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := ch.Call(ctx, "svc/Slow", []byte("x"))
			if err == nil {
				return
			}
			if Code(err) == trace.Unavailable {
				shedErrs.Add(1)
			} else {
				otherErrs.Add(1)
			}
		}()
	}
	// Let the queue fill, then release the pool so the accepted calls
	// complete within their deadlines.
	time.Sleep(300 * time.Millisecond)
	for i := 0; i < 16; i++ {
		select {
		case release <- struct{}{}:
		default:
		}
	}
	wg.Wait()

	if shedErrs.Load() == 0 {
		t.Fatal("no calls were shed despite a stalled single worker")
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.shed == 0 {
		t.Fatal("observer saw no shed calls")
	}
	if uint64(obs.shed) != shedErrs.Load() {
		t.Fatalf("observer shed=%d, clients saw %d Unavailable", obs.shed, shedErrs.Load())
	}
}

// --- fault plane integration ---

// findSeed scans for a seed whose decision stream satisfies want, so
// fault-plane integration tests are deterministic without hand-tuned
// magic numbers.
func findSeed(t *testing.T, want func(seed uint64) bool) uint64 {
	t.Helper()
	for s := uint64(0); s < 10000; s++ {
		if want(s) {
			return s
		}
	}
	t.Fatal("no seed under 10000 satisfies the predicate")
	return 0
}

// An injected drop on the primary leg forces the hedge to win; the
// losing primary is cancelled and its span records the cancellation —
// the hedging economics of the paper's §4.4 under injected failure.
func TestHedgeCancellationUnderInjectedDrop(t *testing.T) {
	const method = "svc/Slow"
	// Drop the primary attempt (attempt key 0) but not the hedge leg
	// (hedge bit set): the two draw from independent decision streams,
	// so scan for a seed separating them.
	mkInjector := func(seed uint64) *faultplane.Injector {
		return faultplane.New(faultplane.Config{
			Seed:  seed,
			Rules: []faultplane.Rule{{Methods: method, DropRate: 0.5}},
		})
	}
	// testSetup shares Options (and so the injector) between channel and
	// server, so the hedge must draw clean decisions at BOTH scopes.
	hedgeKey := faultplane.Key{Seq: 0, Have: true, Attempt: hedgeAttemptBit}
	seed := findSeed(t, func(s uint64) bool {
		inj := mkInjector(s)
		prim := inj.Decide(faultplane.ScopeClient, method, faultplane.Key{Seq: 0, Have: true, Attempt: 0})
		hedgeCl := inj.Decide(faultplane.ScopeClient, method, hedgeKey)
		hedgeSrv := inj.Decide(faultplane.ScopeServer, method, hedgeKey)
		return prim.Drop && !hedgeCl.Faulty() && !hedgeSrv.Faulty()
	})

	col := trace.New()
	opts := Options{Collector: col, Faults: mkInjector(seed)}
	ch, _ := testSetup(t, opts, map[string]Handler{method: echoHandler})

	ctx, cancel := context.WithTimeout(ContextWithCallID(context.Background(), 0), 5*time.Second)
	defer cancel()
	start := time.Now()
	out, err := ch.CallHedged(ctx, method, []byte("payload"), 100*time.Millisecond)
	if err != nil {
		t.Fatalf("hedged call failed: %v", err)
	}
	if string(out) != "payload" {
		t.Fatalf("hedged call returned %q", out)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("hedge did not rescue the dropped primary promptly")
	}

	// The winner is the hedged leg; the abandoned primary's span lands
	// once its context is cancelled by CallHedged's cleanup.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var hedgeOK, primaryCancelled bool
		for _, s := range col.Spans() {
			if s.Method != method {
				continue
			}
			if s.Hedged && s.Err == trace.OK {
				hedgeOK = true
			}
			if !s.Hedged && s.Err == trace.Cancelled {
				primaryCancelled = true
			}
		}
		if hedgeOK && primaryCancelled {
			return
		}
		if time.Now().After(deadline) {
			var got []string
			for _, s := range col.Spans() {
				got = append(got, s.Method+"/"+s.Err.String())
			}
			t.Fatalf("spans never showed hedge-won + primary-cancelled: %v", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Client-scope rejects surface as the injected code without touching
// the network.
func TestClientScopeReject(t *testing.T) {
	inj := faultplane.New(faultplane.Config{
		Seed:  3,
		Rules: []faultplane.Rule{{RejectRate: 1, RejectCode: trace.NoResource}},
	})
	var handled atomic.Uint64
	opts := Options{Faults: inj}
	ch, _ := testSetup(t, opts, map[string]Handler{
		"svc/M": func(ctx context.Context, p []byte) ([]byte, error) {
			handled.Add(1)
			return p, nil
		},
	})
	_, err := ch.Call(context.Background(), "svc/M", []byte("x"))
	if Code(err) != trace.NoResource {
		t.Fatalf("err = %v, want NoResource", err)
	}
	if handled.Load() != 0 {
		t.Fatal("rejected call reached the server")
	}
}

// Server-scope rejects ride back as responses with the injected code,
// and are retried by the retry layer when retryable. Only the server
// carries the injector: the retry must succeed because attempt 0 is
// rejected while attempt 1 draws a clean decision.
func TestServerScopeRejectRetried(t *testing.T) {
	const method = "svc/M"
	mkInjector := func(seed uint64) *faultplane.Injector {
		return faultplane.New(faultplane.Config{
			Seed:  seed,
			Rules: []faultplane.Rule{{Methods: method, RejectRate: 0.5}},
		})
	}
	seed := findSeed(t, func(s uint64) bool {
		inj := mkInjector(s)
		d0 := inj.Decide(faultplane.ScopeServer, method, faultplane.Key{Seq: 0, Have: true, Attempt: 0})
		d1 := inj.Decide(faultplane.ScopeServer, method, faultplane.Key{Seq: 0, Have: true, Attempt: 1})
		return d0.Reject != trace.OK && d1.Reject == trace.OK
	})

	srv := NewServer(Options{Faults: mkInjector(seed)})
	srv.Register(method, echoHandler)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	retry := DefaultRetryPolicy()
	ch, err := Dial(l.Addr().String(), "test-cluster", Options{Retry: &retry})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	ctx := ContextWithCallID(context.Background(), 0)
	out, err := ch.Call(ctx, method, []byte("retried"))
	if err != nil {
		t.Fatalf("call failed despite retry: %v", err)
	}
	if string(out) != "retried" {
		t.Fatalf("out = %q", out)
	}
}
