// Package stubby implements a Stubby/gRPC-style RPC stack over TCP: a
// framed, encrypted, optionally compressed transport; a client channel
// with send/receive queues, deadlines, cancellation, and hedged requests;
// and a server with a receive queue and worker pool.
//
// The stack is instrumented to measure the paper's nine latency components
// (Fig. 9) on every call and emit them as trace spans, which is exactly
// the methodology the paper uses via Dapper. On a loopback connection the
// component clocks are shared, so wire components are honest; across
// machines they would require clock synchronization, which the paper's
// production tracing infrastructure provides and we do not attempt.
package stubby

import (
	"errors"
	"fmt"

	"rpcscale/internal/trace"
)

// Status is the canonical RPC outcome: a code from the paper's error
// taxonomy plus a human-readable message. A nil *Status or a Status with
// code OK means success.
type Status struct {
	Code    trace.ErrorCode
	Message string
}

// Error implements the error interface.
func (s *Status) Error() string {
	return fmt.Sprintf("rpc error: %s: %s", s.Code, s.Message)
}

// Errorf constructs a Status error.
func Errorf(code trace.ErrorCode, format string, args ...any) error {
	return &Status{Code: code, Message: fmt.Sprintf(format, args...)}
}

// StatusFromError extracts the Status from an error. Non-Status errors map
// to Internal; nil maps to OK.
func StatusFromError(err error) *Status {
	if err == nil {
		return &Status{Code: trace.OK}
	}
	var s *Status
	if errors.As(err, &s) {
		return s
	}
	return &Status{Code: trace.Internal, Message: err.Error()}
}

// Code returns the ErrorCode of err (OK for nil).
func Code(err error) trace.ErrorCode { return StatusFromError(err).Code }

// Convenience sentinels for common failures.
var (
	// ErrCancelled reports a call cancelled by the caller (including a
	// losing hedge leg).
	ErrCancelled = &Status{Code: trace.Cancelled, Message: "call cancelled"}
	// ErrDeadlineExceeded reports a call that outlived its deadline.
	ErrDeadlineExceeded = &Status{Code: trace.DeadlineExceeded, Message: "deadline exceeded"}
	// ErrUnavailable reports a closed or failed channel.
	ErrUnavailable = &Status{Code: trace.Unavailable, Message: "channel unavailable"}
)
