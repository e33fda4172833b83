package stubby

import (
	"bytes"
	"testing"
	"time"

	"rpcscale/internal/trace"
)

// TestEnvelopeFastPathParity pins the hand-rolled append encoders
// byte-identical to the codec-based reference encoders: the fast path is an
// optimization, not a protocol change.
func TestEnvelopeFastPathParity(t *testing.T) {
	requests := []request{
		{Method: "svc/Echo", TraceID: 1, SpanID: 2, Payload: []byte("hi")},
		{
			Method:     "billing.Ledger/Post",
			TraceID:    0xdeadbeefcafe,
			SpanID:     7,
			ParentSpan: 9,
			Deadline:   1500 * time.Millisecond,
			Payload:    bytes.Repeat([]byte{0x42}, 300),
			Compressed: true,
			Hedged:     true,
			CallSeq:    1234,
			Attempt:    3,
		},
		{Method: "", TraceID: 0, SpanID: 0, Payload: nil},
		{Method: "m", Payload: []byte{}, CallSeq: 1},
	}
	for i, r := range requests {
		want, err := r.marshalReference()
		if err != nil {
			t.Fatalf("request %d: reference: %v", i, err)
		}
		got := appendRequest(nil, &r)
		if !bytes.Equal(got, want) {
			t.Errorf("request %d: appendRequest differs from codec reference\n got %x\nwant %x", i, got, want)
		}
	}

	responses := []response{
		{Code: trace.OK, Payload: []byte("result")},
		{
			Code:       trace.Unavailable,
			Message:    "server overloaded",
			Compressed: true,
			Timings: serverTimings{
				RecvQueue: 100, App: 200, SendQueue: 300, RespProc: 400, Elapsed: 1000,
			},
		},
		{Code: trace.OK, Payload: bytes.Repeat([]byte{9}, 2048), More: true},
		{Code: trace.OK, Payload: []byte("loaded"), Load: 37},
		{},
	}
	for i, r := range responses {
		want, err := r.marshalReference()
		if err != nil {
			t.Fatalf("response %d: reference: %v", i, err)
		}
		got := appendResponse(nil, &r)
		if !bytes.Equal(got, want) {
			t.Errorf("response %d: appendResponse differs from codec reference\n got %x\nwant %x", i, got, want)
		}
	}
}

func TestEnvelopeFastPathRoundTrip(t *testing.T) {
	in := request{
		Method:     "search.Index/Lookup",
		TraceID:    99,
		SpanID:     3,
		ParentSpan: 2,
		Deadline:   time.Second,
		Payload:    []byte("query"),
		Hedged:     true,
		CallSeq:    55,
		Attempt:    2,
	}
	buf := appendRequest(nil, &in)
	var out request
	if err := parseRequestInto(&out, buf, nil); err != nil {
		t.Fatal(err)
	}
	if out.Method != in.Method || out.TraceID != in.TraceID || out.SpanID != in.SpanID ||
		out.ParentSpan != in.ParentSpan || out.Deadline != in.Deadline ||
		!bytes.Equal(out.Payload, in.Payload) || out.Hedged != in.Hedged ||
		out.CallSeq != in.CallSeq || out.Attempt != in.Attempt {
		t.Fatalf("request round trip mismatch: %+v != %+v", out, in)
	}

	resp := response{
		Code:    trace.DeadlineExceeded,
		Message: "too slow",
		Payload: []byte("partial"),
		More:    true,
		Timings: serverTimings{RecvQueue: 1, App: 2, SendQueue: 3, RespProc: 4, Elapsed: 10},
		Load:    12,
	}
	rbuf := appendResponse(nil, &resp)
	var rout response
	if err := parseResponseInto(&rout, rbuf); err != nil {
		t.Fatal(err)
	}
	if rout.Code != resp.Code || rout.Message != resp.Message ||
		!bytes.Equal(rout.Payload, resp.Payload) || rout.More != resp.More ||
		rout.Load != resp.Load || rout.Timings != resp.Timings {
		t.Fatalf("response round trip mismatch: %+v != %+v", rout, resp)
	}

	// The server marshals the body once, stamps the timings afterwards and
	// appends them: the two halves must make the same envelope.
	stamped := resp
	stamped.Timings = serverTimings{}
	split := appendResponseBody(nil, &stamped)
	stamped.Timings = resp.Timings
	if split = appendTimings(split, &stamped.Timings); !bytes.Equal(split, rbuf) {
		t.Errorf("body then timings differs from appendResponse\n got %x\nwant %x", split, rbuf)
	}
}

// TestResponseOldFieldOrderParses feeds the parser an envelope laid out as
// peers built before the timings moved to the tail emit it — the timings in
// field-number order, ahead of more, bulk_size and load: the parser goes by
// tag, so both layouts must decode to the same response.
func TestResponseOldFieldOrderParses(t *testing.T) {
	want := response{
		Code:       trace.NoResource,
		Message:    "queue full",
		Payload:    []byte("partial"),
		Compressed: true,
		More:       true,
		Timings:    serverTimings{RecvQueue: 11, App: 22, SendQueue: 33, RespProc: 44, Elapsed: 150},
		BulkSize:   1 << 20,
		Load:       7,
	}
	old := appendUintField(nil, respCode, uint64(want.Code))
	old = appendStringField(old, respMessage, want.Message)
	old = appendBytesField(old, respPayload, want.Payload)
	old = appendBoolField(old, respCompressed, true)
	old = appendTimings(old, &want.Timings)
	old = appendBoolField(old, respMore, true)
	old = appendUintField(old, respBulkSize, want.BulkSize)
	old = appendUintField(old, respLoad, uint64(want.Load))
	if bytes.Equal(old, appendResponse(nil, &want)) {
		t.Fatal("the old layout and the current one are the same bytes: the test checks nothing")
	}
	var got response
	if err := parseResponseInto(&got, old); err != nil {
		t.Fatal(err)
	}
	if got.Code != want.Code || got.Message != want.Message || !bytes.Equal(got.Payload, want.Payload) ||
		got.Compressed != want.Compressed || got.More != want.More || got.Timings != want.Timings ||
		got.BulkSize != want.BulkSize || got.Load != want.Load {
		t.Fatalf("old-order envelope decoded to %+v, want %+v", got, want)
	}
}

func TestParseTruncatedEnvelope(t *testing.T) {
	r := request{Method: "svc/M", TraceID: 1, SpanID: 2, Payload: []byte("payload")}
	buf := appendRequest(nil, &r)
	for cut := 1; cut < len(buf); cut++ {
		var out request
		// Some prefixes happen to decode cleanly (trailing fields simply
		// absent); what must never happen is a panic or an out-of-bounds
		// payload slice.
		if err := parseRequestInto(&out, buf[:cut], nil); err == nil {
			if len(out.Payload) > cut {
				t.Fatalf("cut=%d: payload exceeds input", cut)
			}
		}
	}
}

// TestInternedMethodNames verifies the server resolves registered method
// names through the interning table, so decode reuses the registered
// string.
func TestInternedMethodNames(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	const m = "svc.Interned/Call"
	s.Register(m, echoHandler)
	s.mu.RLock()
	got := s.intern([]byte(m))
	s.mu.RUnlock()
	if got != m {
		t.Fatalf("intern(%q) = %q", m, got)
	}
	if s.methodNames[m] != m {
		t.Fatal("registered method missing from interning table")
	}
	if unknown := s.intern([]byte("not/registered")); unknown != "not/registered" {
		t.Fatalf("intern of unknown method = %q", unknown)
	}
}
