package stubby

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rpcscale/internal/trace"
)

// TestOptionsFieldBudget holds the knob count, and the number of events an
// Observer must know, where this PR left them.
func TestOptionsFieldBudget(t *testing.T) {
	const budget, events = 13, 5
	if n := reflect.TypeOf(Options{}).NumField(); n > budget {
		t.Fatalf("Options has %d fields, budget %d. ROADMAP aim 2: \"a PR that adds a knob must say which existing knob it retires\".", n, budget)
	}
	if n := reflect.TypeOf((*Observer)(nil)).Elem().NumMethod(); n > events {
		t.Fatalf("Observer has %d methods, budget %d", n, events)
	}
}

// TestExportedNameBudget holds the package's exported surface at its
// budget: the exported top-level names of the non-test files, counting
// funcs, methods, types and each name a const or var declaration binds.
// ROADMAP aim 2 tracks this count; a change that exports a name says
// which one it retires, or raises the budget here on purpose.
func TestExportedNameBudget(t *testing.T) {
	const budget = 58
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var ids []*ast.Ident
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				ids = append(ids, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						ids = append(ids, s.Name)
					case *ast.ValueSpec:
						ids = append(ids, s.Names...)
					}
				}
			}
		}
		for _, id := range ids {
			if id.IsExported() {
				exported = append(exported, id.Name)
			}
		}
	}
	if len(exported) > budget {
		t.Fatalf("stubby exports %d names, budget %d: %v", len(exported), budget, exported)
	}
}

// countingObserver counts every event the single Observer carries.
type countingObserver struct {
	spans, retries, suppressed, transitions, shed atomic.Int64
}

func (o *countingObserver) Observe(*trace.Span)    { o.spans.Add(1) }
func (o *countingObserver) RetryAttempt(string)    { o.retries.Add(1) }
func (o *countingObserver) RetrySuppressed(string) { o.suppressed.Add(1) }
func (o *countingObserver) BreakerTransition(string, BreakerState, BreakerState) {
	o.transitions.Add(1)
}
func (o *countingObserver) CallShed(string) { o.shed.Add(1) }

// TestOneObserverReceivesEveryKind runs a live client and server with one
// Options.Observer between them and provokes every event it carries: a
// span, a shed call, a retry the budget admits, one it refuses, and the
// circuit breaker opening.
func TestOneObserverReceivesEveryKind(t *testing.T) {
	obs := &countingObserver{}
	started, release := make(chan struct{}, 1), make(chan struct{})
	opts := Options{
		Observer: obs, Workers: 1, ShedThreshold: 1,
		// Four tokens: the first failure leaves three, enough for a retry
		// (more than half); the retry and the next failure leave one.
		Retry:   &RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, Budget: NewRetryBudget(4, 0.1)},
		Breaker: &BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute},
	}
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

	if _, err := ch.Call(ctx, "svc/Echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if obs.spans.Load() != 1 {
		t.Errorf("Observe saw %d spans after one call", obs.spans.Load())
	}

	// One call holds the only worker, a second waits in the queue, and
	// every later arrival finds the queue at the shedding threshold.
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
	for srv.load() != 2 {
		time.Sleep(time.Millisecond)
	}
	// The first shed call is retried and shed again; the second's retry is
	// refused by the budget, and its failure is the breaker's second.
	for i := 0; i < 2; i++ {
		if _, err := ch.Call(ctx, "svc/Slow", nil); Code(err) != trace.Unavailable {
			t.Errorf("call past the shedding threshold: %v, want Unavailable", err)
		}
	}
	for name, c := range map[string]struct {
		got  *atomic.Int64
		want int64
	}{
		"CallShed":          {&obs.shed, 3},
		"RetryAttempt":      {&obs.retries, 1},
		"RetrySuppressed":   {&obs.suppressed, 1},
		"BreakerTransition": {&obs.transitions, 1},
	} {
		if n := c.got.Load(); n != c.want {
			t.Errorf("%s saw %d events, want %d", name, n, c.want)
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-slow; err != nil {
			t.Error(err)
		}
	}
}
