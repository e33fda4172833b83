package stubby

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rpcscale/internal/trace"
)

// TestOptionsFieldBudget holds the knob count, and the number of events an
// Observer must know, where this PR left them.
func TestOptionsFieldBudget(t *testing.T) {
	const budget, events = 19, 6
	if n := reflect.TypeOf(Options{}).NumField(); n > budget {
		t.Fatalf("Options has %d fields, budget %d. ROADMAP aim 2: \"a PR that adds a knob must say which existing knob it retires\".", n, budget)
	}
	if n := reflect.TypeOf((*Observer)(nil)).Elem().NumMethod(); n > events {
		t.Fatalf("Observer has %d methods, budget %d", n, events)
	}
}

// pickyObserver overrides one method of each kind of event the single
// Observer carries — a span, a robustness event, a data-plane event — and
// leaves the rest to NopObserver.
type pickyObserver struct {
	NopObserver
	spans, shed, jobs atomic.Int64
}

func (o *pickyObserver) Observe(*trace.Span)  { o.spans.Add(1) }
func (o *pickyObserver) CallShed(string)      { o.shed.Add(1) }
func (o *pickyObserver) CodecJobEnqueued(int) { o.jobs.Add(1) }

// TestOneObserverReceivesEveryKind runs a live client and server with one
// Options.Observer between them and provokes all three kinds of event.
func TestOneObserverReceivesEveryKind(t *testing.T) {
	obs := &pickyObserver{}
	started, release := make(chan struct{}, 1), make(chan struct{})
	withProcs(t, 2)
	opts := Options{Observer: obs, Workers: 1, ShedThreshold: 1}
	ch, srv := testSetup(t, opts, map[string]Handler{
		"svc/Echo": echoHandler,
		"svc/Slow": func(_ context.Context, p []byte) ([]byte, error) {
			started <- struct{}{}
			<-release
			return p, nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// A span per call; and an 8 KiB frame is past codecInlineMax, so with
	// the pool on each end opens it on a worker.
	if _, err := ch.Call(ctx, "svc/Echo", make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}
	if obs.spans.Load() != 1 {
		t.Errorf("Observe saw %d spans after one call", obs.spans.Load())
	}
	if obs.jobs.Load() != 2 {
		t.Errorf("CodecJobEnqueued saw %d jobs, want the request's open and the response's", obs.jobs.Load())
	}

	// One call holds the only worker, a second waits in the queue, and the
	// third finds the queue at the shedding threshold.
	slow := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := ch.Call(ctx, "svc/Slow", nil)
			slow <- err
		}()
		if i == 0 {
			<-started
		}
	}
	for srv.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := ch.Call(ctx, "svc/Slow", nil); Code(err) != trace.Unavailable {
		t.Errorf("call past the shedding threshold: %v, want Unavailable", err)
	}
	if obs.shed.Load() != 1 {
		t.Errorf("CallShed saw %d sheds, want 1", obs.shed.Load())
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-slow; err != nil {
			t.Error(err)
		}
	}
}
