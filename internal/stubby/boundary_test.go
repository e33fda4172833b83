package stubby

import (
	"context"
	"errors"
	"testing"
	"time"

	"rpcscale/internal/trace"
)

// TestExportedBoundariesReturnStatusErrors is the runtime half of the
// statuserr invariant (the rpclint statuserr analyzer is the static
// half): every exported RPC-path entry point, driven into each of its
// failure modes, must return a canonical *Status error so the span's
// code, and the telemetry plane's per-code Monarch series, classify the
// failure instead of lumping it into Internal. The analyzer catches direct bare constructors; this
// table covers errors propagated through variables, which a syntactic
// check cannot.
func TestExportedBoundariesReturnStatusErrors(t *testing.T) {
	live, _ := testSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler})

	// A dialed-then-closed channel: every call on it must fail Unavailable.
	dead, _ := testSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler})
	dead.Close()

	deadPool, _ := poolSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler}, 2)
	deadPool.Close()

	bg := context.Background()
	cases := []struct {
		name string
		want trace.ErrorCode // trace.OK = any non-OK code is acceptable
		call func() error
	}{
		{"Dial/refused", trace.Unavailable, func() error {
			// Port 1 is reserved and unbound; the kernel refuses immediately.
			_, err := Dial("127.0.0.1:1", "t", Options{})
			return err
		}},
		{"NewPool/all-dials-fail", trace.Unavailable, func() error {
			_, err := NewPool("127.0.0.1:1", "t", 2, Options{})
			return err
		}},
		{"Call/unregistered-method", trace.EntityNotFound, func() error {
			_, err := live.Call(bg, "svc/NoSuchMethod", nil)
			return err
		}},
		{"Call/closed-channel", trace.Unavailable, func() error {
			_, err := dead.Call(bg, "svc/Echo", nil)
			return err
		}},
		{"Call/expired-deadline", trace.DeadlineExceeded, func() error {
			ctx, cancel := context.WithTimeout(bg, -time.Second)
			defer cancel()
			_, err := live.Call(ctx, "svc/Echo", nil)
			return err
		}},
		{"CallHedged/closed-channel", trace.Unavailable, func() error {
			_, err := dead.CallHedged(bg, "svc/Echo", nil, time.Millisecond)
			return err
		}},
		{"OpenStream/closed-channel", trace.Unavailable, func() error {
			_, err := dead.OpenStream(bg, "svc/Echo")
			return err
		}},
		{"Pool.Call/after-close", trace.Unavailable, func() error {
			_, err := deadPool.Call(bg, "svc/Echo", nil)
			return err
		}},
		{"Pool.CallHedged/after-close", trace.Unavailable, func() error {
			_, err := deadPool.CallHedged(bg, "svc/Echo", nil, time.Millisecond)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("expected an error")
			}
			var st *Status
			if !errors.As(err, &st) {
				t.Fatalf("boundary returned a non-status error: %v (%T)", err, err)
			}
			if st.Code == trace.OK {
				t.Fatalf("status error with code OK: %v", err)
			}
			if tc.want != trace.OK && st.Code != tc.want {
				t.Fatalf("code = %v, want %v (err: %v)", st.Code, tc.want, err)
			}
		})
	}
}
