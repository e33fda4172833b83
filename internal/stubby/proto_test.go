package stubby

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"rpcscale/internal/codec"
	"rpcscale/internal/trace"
)

// TestEnvelopeFastPathParity pins the hand-rolled append encoders
// byte-identical to the codec-based reference encoders: the fast path is an
// optimization, not a protocol change.
func TestEnvelopeFastPathParity(t *testing.T) {
	for i, r := range parityRequests {
		want, err := r.marshalReference()
		if err != nil {
			t.Fatalf("request %d: reference: %v", i, err)
		}
		got := appendRequest(nil, &r)
		if !bytes.Equal(got, want) {
			t.Errorf("request %d: appendRequest differs from codec reference\n got %x\nwant %x", i, got, want)
		}
	}
	for i, r := range parityResponses {
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

// parityRequests and parityResponses are the envelopes the parity test
// encodes both ways, and the fuzz targets' seeds.
var (
	parityRequests = []request{
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
	parityResponses = []response{
		{Code: trace.OK, Payload: []byte("result")},
		{
			Code:       trace.Unavailable,
			Message:    "server overloaded",
			Compressed: true,
			Timings: serverTimings{
				RecvQueue: 100, App: 200, SendQueue: 300, RespProc: 400, Elapsed: 1000,
			},
		},
		{Code: trace.OK, Payload: bytes.Repeat([]byte{9}, 2048)},
		{Code: trace.OK, Payload: []byte("loaded"), Load: 37},
		{},
	}
)

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
		Timings: serverTimings{RecvQueue: 1, App: 2, SendQueue: 3, RespProc: 4, Elapsed: 10},
		Load:    12,
	}
	rbuf := appendResponse(nil, &resp)
	var rout response
	if err := parseResponseInto(&rout, rbuf); err != nil {
		t.Fatal(err)
	}
	if rout.Code != resp.Code || rout.Message != resp.Message ||
		!bytes.Equal(rout.Payload, resp.Payload) ||
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
// field-number order, ahead of the retired more flag (tag 10), bulk_size and
// load: the parser goes by tag and skips tag 10 as unknown, so both layouts
// must decode to the same response.
func TestResponseOldFieldOrderParses(t *testing.T) {
	want := oldOrderResponse
	old := appendOldOrderResponse(nil, &want)
	if bytes.Equal(old, appendResponse(nil, &want)) {
		t.Fatal("the old layout and the current one are the same bytes: the test checks nothing")
	}
	var got response
	if err := parseResponseInto(&got, old); err != nil {
		t.Fatal(err)
	}
	if got.Code != want.Code || got.Message != want.Message || !bytes.Equal(got.Payload, want.Payload) ||
		got.Compressed != want.Compressed || got.Timings != want.Timings ||
		got.BulkSize != want.BulkSize || got.Load != want.Load {
		t.Fatalf("old-order envelope decoded to %+v, want %+v", got, want)
	}
}

var oldOrderResponse = response{
	Code:       trace.NoResource,
	Message:    "queue full",
	Payload:    []byte("partial"),
	Compressed: true,
	Timings:    serverTimings{RecvQueue: 11, App: 22, SendQueue: 33, RespProc: 44, Elapsed: 150},
	BulkSize:   1 << 20,
	Load:       7,
}

// oldMoreTag is the retired server-stream "more" flag, which peers of the
// old layout still send.
const oldMoreTag = 10

// appendOldOrderResponse encodes r in the old layout: the timings in
// field-number order, ahead of more, bulk_size and load.
func appendOldOrderResponse(dst []byte, r *response) []byte {
	dst = appendUintField(dst, respCode, uint64(r.Code))
	dst = appendStringField(dst, respMessage, r.Message)
	dst = appendBytesField(dst, respPayload, r.Payload)
	dst = appendBoolField(dst, respCompressed, r.Compressed)
	dst = appendTimings(dst, &r.Timings)
	dst = appendBoolField(dst, oldMoreTag, true)
	dst = appendUintField(dst, respBulkSize, r.BulkSize)
	return appendUintField(dst, respLoad, uint64(r.Load))
}

// FuzzParseRequest feeds parseRequestInto bytes a client controls. No input
// may panic it; whatever the reference decoder (codec.Unmarshal over
// requestDesc) accepts, it must decode to the same fields or refuse as out
// of range a value its field cannot hold; and what it accepts must survive
// appendRequest and a second parse unchanged.
func FuzzParseRequest(f *testing.F) {
	for _, r := range parityRequests {
		f.Add(appendRequest(nil, &r))
	}
	f.Add(appendUintField(nil, reqAttempt, 1<<32))             // past uint32
	f.Add(appendUintField(nil, reqDeadlineNs, math.MaxUint64)) // a negative time.Duration
	// Out of range, then repeated in range: the reference keeps the last.
	f.Add(appendUintField(appendUintField(nil, reqAttempt, 1<<32), reqAttempt, 48))
	// The retired window and bulk-size tags, skipped as unknown.
	f.Add(appendUintField(appendUintField(nil, retiredReqWindow, 64<<20), retiredReqBulkSize, 1<<45))
	f.Fuzz(func(t *testing.T, b []byte) {
		var got request
		err := parseRequestInto(&got, b, nil)
		if ref, rerr := codec.Unmarshal(requestDesc, b); rerr == nil {
			want := request{
				Method:     ref.GetString(reqMethod),
				TraceID:    trace.TraceID(ref.GetUint64(reqTraceID)),
				SpanID:     trace.SpanID(ref.GetUint64(reqSpanID)),
				ParentSpan: trace.SpanID(ref.GetUint64(reqParentSpan)),
				Deadline:   time.Duration(ref.GetUint64(reqDeadlineNs)),
				Payload:    ref.GetBytes(reqPayload),
				Compressed: ref.GetBool(reqCompressed),
				Hedged:     ref.GetBool(reqHedged),
				CallSeq:    ref.GetUint64(reqCallSeq),
				Attempt:    uint32(ref.GetUint64(reqAttempt)),
			}
			outOfRange := ref.GetUint64(reqAttempt) > math.MaxUint32
			switch {
			case outOfRange && !errors.Is(err, errFieldRange):
				t.Fatalf("a field out of range: got %+v, err %v", got, err)
			case errors.Is(err, errFieldRange):
				// Also right for an earlier occurrence of a repeated field,
				// which the reference overwrites with the last.
			case err != nil:
				t.Fatalf("the reference decodes %+v, parseRequestInto fails: %v", want, err)
			case !sameRequest(got, want):
				t.Fatalf("parseRequestInto decoded %+v, the reference %+v", got, want)
			}
		}
		if err != nil {
			return
		}
		var again request
		if err := parseRequestInto(&again, appendRequest(nil, &got), nil); err != nil || !sameRequest(again, got) {
			t.Fatalf("re-encoded %+v parses to %+v, err %v", got, again, err)
		}
	})
}

// FuzzParseResponse is FuzzParseRequest for the response envelope, which a
// server controls, seeded with both field orders a peer may send.
func FuzzParseResponse(f *testing.F) {
	for _, r := range parityResponses {
		f.Add(appendResponse(nil, &r))
	}
	f.Add(appendOldOrderResponse(nil, &oldOrderResponse))
	f.Add(appendUintField(nil, respCode, 256))   // past uint8, where it would read as OK
	f.Add(appendUintField(nil, respLoad, 1<<32)) // decodes whole: Load is a uint64
	f.Add(appendUintField(appendUintField(nil, respCode, 6235), respCode, 48))
	f.Fuzz(func(t *testing.T, b []byte) {
		var got response
		err := parseResponseInto(&got, b)
		if ref, rerr := codec.Unmarshal(responseDesc, b); rerr == nil {
			want := response{
				Code:       trace.ErrorCode(ref.GetUint64(respCode)),
				Message:    ref.GetString(respMessage),
				Payload:    ref.GetBytes(respPayload),
				Compressed: ref.GetBool(respCompressed),
				Timings: serverTimings{
					RecvQueue: time.Duration(ref.GetUint64(respRecvQueueNs)),
					App:       time.Duration(ref.GetUint64(respAppNs)),
					SendQueue: time.Duration(ref.GetUint64(respSendQueueNs)),
					RespProc:  time.Duration(ref.GetUint64(respProcNs)),
					Elapsed:   time.Duration(ref.GetUint64(respElapsedNs)),
				},
				BulkSize: ref.GetUint64(respBulkSize),
				Load:     ref.GetUint64(respLoad),
			}
			outOfRange := ref.GetUint64(respCode) > math.MaxUint8
			switch {
			case outOfRange && !errors.Is(err, errFieldRange):
				t.Fatalf("a field out of range: got %+v, err %v", got, err)
			case errors.Is(err, errFieldRange):
				// Also right for an earlier occurrence of a repeated field,
				// which the reference overwrites with the last.
			case err != nil:
				t.Fatalf("the reference decodes %+v, parseResponseInto fails: %v", want, err)
			case !sameResponse(got, want):
				t.Fatalf("parseResponseInto decoded %+v, the reference %+v", got, want)
			}
		}
		if err != nil {
			return
		}
		var again response
		if err := parseResponseInto(&again, appendResponse(nil, &got)); err != nil || !sameResponse(again, got) {
			t.Fatalf("re-encoded %+v parses to %+v, err %v", got, again, err)
		}
	})
}

// sameRequest and sameResponse compare envelopes field by field, a nil
// payload equal to an empty one.
func sameRequest(a, b request) bool {
	pa, pb := a.Payload, b.Payload
	a.Payload, b.Payload = nil, nil
	return bytes.Equal(pa, pb) && reflect.DeepEqual(a, b)
}

func sameResponse(a, b response) bool {
	pa, pb := a.Payload, b.Payload
	a.Payload, b.Payload = nil, nil
	return bytes.Equal(pa, pb) && reflect.DeepEqual(a, b)
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
