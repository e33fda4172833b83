package stubby

import (
	"errors"
	"fmt"
	"math"
	"time"

	"rpcscale/internal/codec"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// Wire message descriptors for the RPC protocol itself. These are the
// stack's own "protos": the request and response envelopes that carry
// user payloads plus tracing and instrumentation metadata.

// Request envelope field numbers. Tags 11 and 12, once a stream-open's
// credit window and a bulk request's declared size, stay unassigned: the
// window is a protocol constant and the server sizes a bulk request by the
// bytes that arrive, so a peer that still sends either is skipped as an
// unknown field.
const (
	reqMethod     = 1
	reqTraceID    = 2
	reqSpanID     = 3
	reqParentSpan = 4
	reqDeadlineNs = 5
	reqPayload    = 6
	reqCompressed = 7
	reqHedged     = 8
	reqCallSeq    = 9
	reqAttempt    = 10
)

// Response envelope field numbers. Tag 10, once a server-stream "more"
// flag, stays unassigned: a peer that still sends it is skipped as an
// unknown field.
const (
	respCode        = 1
	respMessage     = 2
	respPayload     = 3
	respCompressed  = 4
	respRecvQueueNs = 5
	respAppNs       = 6
	respSendQueueNs = 7
	respProcNs      = 8
	respElapsedNs   = 9
	respBulkSize    = 11
	respLoad        = 12
)

var requestDesc = codec.MustDescriptor("stubby.Request",
	codec.Field{Number: reqMethod, Name: "method", Type: codec.TypeString},
	codec.Field{Number: reqTraceID, Name: "trace_id", Type: codec.TypeUint64},
	codec.Field{Number: reqSpanID, Name: "span_id", Type: codec.TypeUint64},
	codec.Field{Number: reqParentSpan, Name: "parent_span_id", Type: codec.TypeUint64},
	codec.Field{Number: reqDeadlineNs, Name: "deadline_ns", Type: codec.TypeUint64},
	codec.Field{Number: reqPayload, Name: "payload", Type: codec.TypeBytes},
	codec.Field{Number: reqCompressed, Name: "compressed", Type: codec.TypeBool},
	codec.Field{Number: reqHedged, Name: "hedged", Type: codec.TypeBool},
	codec.Field{Number: reqCallSeq, Name: "call_seq", Type: codec.TypeUint64},
	codec.Field{Number: reqAttempt, Name: "attempt", Type: codec.TypeUint64},
)

var responseDesc = codec.MustDescriptor("stubby.Response",
	codec.Field{Number: respCode, Name: "code", Type: codec.TypeUint64},
	codec.Field{Number: respMessage, Name: "message", Type: codec.TypeString},
	codec.Field{Number: respPayload, Name: "payload", Type: codec.TypeBytes},
	codec.Field{Number: respCompressed, Name: "compressed", Type: codec.TypeBool},
	codec.Field{Number: respBulkSize, Name: "bulk_size", Type: codec.TypeUint64},
	codec.Field{Number: respLoad, Name: "load", Type: codec.TypeUint64},
	// The timings are encoded last (descriptor order is encode order) so
	// the server can stamp them after the payload is marshalled.
	codec.Field{Number: respRecvQueueNs, Name: "recv_queue_ns", Type: codec.TypeUint64},
	codec.Field{Number: respAppNs, Name: "app_ns", Type: codec.TypeUint64},
	codec.Field{Number: respSendQueueNs, Name: "send_queue_ns", Type: codec.TypeUint64},
	codec.Field{Number: respProcNs, Name: "resp_proc_ns", Type: codec.TypeUint64},
	codec.Field{Number: respElapsedNs, Name: "server_elapsed_ns", Type: codec.TypeUint64},
)

// request is the decoded request envelope.
type request struct {
	Method     string
	TraceID    trace.TraceID
	SpanID     trace.SpanID
	ParentSpan trace.SpanID
	Deadline   time.Duration // 0 = none; nanoseconds relative to epoch
	Payload    []byte
	Compressed bool
	Hedged     bool
	// CallSeq carries the caller's logical call ID plus one (0 = no ID
	// assigned); Attempt is the retry attempt number with the hedge bit.
	// Together they key the server-side fault plane's deterministic
	// decisions and let servers account retry amplification.
	CallSeq uint64
	Attempt uint32
}

// marshalReference encodes r through the generic codec layer. It is the
// specification of the request wire format; appendRequest is the
// hand-rolled production encoder pinned byte-identical to it by
// TestEnvelopeFastPathParity.
func (r *request) marshalReference() ([]byte, error) {
	m := codec.NewMessage(requestDesc).
		Set(reqMethod, r.Method).
		Set(reqTraceID, uint64(r.TraceID)).
		Set(reqSpanID, uint64(r.SpanID)).
		Set(reqPayload, r.Payload)
	if r.ParentSpan != 0 {
		m.Set(reqParentSpan, uint64(r.ParentSpan))
	}
	if r.Deadline != 0 {
		m.Set(reqDeadlineNs, uint64(r.Deadline))
	}
	if r.Compressed {
		m.Set(reqCompressed, true)
	}
	if r.Hedged {
		m.Set(reqHedged, true)
	}
	if r.CallSeq != 0 {
		m.Set(reqCallSeq, r.CallSeq)
	}
	if r.Attempt != 0 {
		m.Set(reqAttempt, uint64(r.Attempt))
	}
	return codec.Marshal(m)
}

// Append-style field encoders: the codec's wire format (protobuf-style
// key = number<<3 | wiretype) emitted straight into a caller-provided
// buffer, playing the role generated code plays for a .proto file.

func appendUintField(dst []byte, num, v uint64) []byte {
	dst = wire.AppendUvarint(dst, num<<3) // wiretype 0: varint
	return wire.AppendUvarint(dst, v)
}

func appendBoolField(dst []byte, num uint64, v bool) []byte {
	dst = wire.AppendUvarint(dst, num<<3)
	b := uint64(0)
	if v {
		b = 1
	}
	return wire.AppendUvarint(dst, b)
}

func appendStringField(dst []byte, num uint64, s string) []byte {
	dst = wire.AppendUvarint(dst, num<<3|2) // wiretype 2: length-delimited
	dst = wire.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytesField(dst []byte, num uint64, b []byte) []byte {
	dst = wire.AppendUvarint(dst, num<<3|2)
	dst = wire.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// envelopeOverhead bounds the encoded size of every envelope field except
// the method string and the payload, so send paths can size one pooled
// buffer for the whole marshalled message.
const envelopeOverhead = 128

// appendRequest encodes r onto dst — byte-identical to marshalReference —
// and returns the extended slice. It allocates only if dst lacks
// capacity.
func appendRequest(dst []byte, r *request) []byte {
	dst = appendStringField(dst, reqMethod, r.Method)
	dst = appendUintField(dst, reqTraceID, uint64(r.TraceID))
	dst = appendUintField(dst, reqSpanID, uint64(r.SpanID))
	if r.ParentSpan != 0 {
		dst = appendUintField(dst, reqParentSpan, uint64(r.ParentSpan))
	}
	if r.Deadline != 0 {
		dst = appendUintField(dst, reqDeadlineNs, uint64(r.Deadline))
	}
	dst = appendBytesField(dst, reqPayload, r.Payload)
	if r.Compressed {
		dst = appendBoolField(dst, reqCompressed, true)
	}
	if r.Hedged {
		dst = appendBoolField(dst, reqHedged, true)
	}
	if r.CallSeq != 0 {
		dst = appendUintField(dst, reqCallSeq, r.CallSeq)
	}
	if r.Attempt != 0 {
		dst = appendUintField(dst, reqAttempt, uint64(r.Attempt))
	}
	return dst
}

var errTruncatedEnvelope = errors.New("stubby: truncated envelope")

// errFieldRange refuses an envelope carrying a value its field cannot hold
// — a response code past uint8, an attempt number past uint32 — rather than
// decoding a different number: truncated, a response code of 256 would
// read as OK.
var errFieldRange = errors.New("stubby: envelope field out of range")

// parseRequestInto decodes buf into r without going through the dynamic
// codec message. r.Payload aliases buf: the caller owns buf and must keep
// it alive until the payload is no longer referenced. intern, when
// non-nil, maps the method-name bytes to a string (the server passes its
// registered-name interner so steady-state requests allocate no method
// string); nil falls back to a plain string copy. Unknown fields are
// skipped, mirroring codec.Unmarshal.
func parseRequestInto(r *request, buf []byte, intern func([]byte) string) error {
	*r = request{}
	for len(buf) > 0 {
		key, n := wire.Uvarint(buf)
		if n <= 0 {
			return errTruncatedEnvelope
		}
		buf = buf[n:]
		num, wt := key>>3, key&0x7
		switch wt {
		case 0: // varint
			x, n := wire.Uvarint(buf)
			if n <= 0 {
				return errTruncatedEnvelope
			}
			buf = buf[n:]
			switch num {
			case reqTraceID:
				r.TraceID = trace.TraceID(x)
			case reqSpanID:
				r.SpanID = trace.SpanID(x)
			case reqParentSpan:
				r.ParentSpan = trace.SpanID(x)
			case reqDeadlineNs:
				r.Deadline = time.Duration(x)
			case reqCompressed:
				r.Compressed = x != 0
			case reqHedged:
				r.Hedged = x != 0
			case reqCallSeq:
				r.CallSeq = x
			case reqAttempt:
				if x > math.MaxUint32 {
					return errFieldRange
				}
				r.Attempt = uint32(x)
			}
		case 2: // length-delimited
			length, n := wire.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < length {
				return errTruncatedEnvelope
			}
			field := buf[n : n+int(length)]
			buf = buf[n+int(length):]
			switch num {
			case reqMethod:
				if intern != nil {
					r.Method = intern(field)
				} else {
					r.Method = string(field)
				}
			case reqPayload:
				r.Payload = field
			}
		case 1: // 64-bit fixed (no such request field; skip unknowns)
			if len(buf) < 8 {
				return errTruncatedEnvelope
			}
			buf = buf[8:]
		default:
			return fmt.Errorf("stubby: request envelope: unknown wire type %d", wt)
		}
	}
	return nil
}

// parseRequest decodes buf into a fresh request. The payload aliases buf.
func parseRequest(buf []byte) (*request, error) {
	r := new(request)
	if err := parseRequestInto(r, buf, nil); err != nil {
		return nil, fmt.Errorf("stubby: parsing request: %w", err)
	}
	return r, nil
}

// serverTimings carries the server-measured latency components back to the
// client inside the response envelope, so the client can assemble the full
// nine-component breakdown.
type serverTimings struct {
	RecvQueue time.Duration // ServerRecvQueue (incl. decode)
	App       time.Duration // ServerApp
	SendQueue time.Duration // ServerSendQueue
	RespProc  time.Duration // RespProcStack measured server-side
	Elapsed   time.Duration // total server residence (read-done to write-done)
}

// response is the decoded response envelope.
type response struct {
	Code       trace.ErrorCode
	Message    string
	Payload    []byte
	Compressed bool
	Timings    serverTimings
	// BulkSize, on a bulk-response envelope, is the total payload size
	// that follows as stream chunks (the envelope carries no payload).
	BulkSize uint64
	// Load is the server's instantaneous load report (recv-queue depth
	// plus in-flight handlers) piggybacked on every response, feeding
	// client-side load-aware balancing (DESIGN.md §13).
	Load uint64
}

// marshalReference encodes r through the generic codec layer — the
// specification appendResponse is pinned byte-identical to.
func (r *response) marshalReference() ([]byte, error) {
	m := codec.NewMessage(responseDesc).
		Set(respCode, uint64(r.Code)).
		Set(respPayload, r.Payload)
	if r.Message != "" {
		m.Set(respMessage, r.Message)
	}
	if r.Compressed {
		m.Set(respCompressed, true)
	}
	m.Set(respRecvQueueNs, uint64(r.Timings.RecvQueue)).
		Set(respAppNs, uint64(r.Timings.App)).
		Set(respSendQueueNs, uint64(r.Timings.SendQueue)).
		Set(respProcNs, uint64(r.Timings.RespProc)).
		Set(respElapsedNs, uint64(r.Timings.Elapsed))
	if r.BulkSize != 0 {
		m.Set(respBulkSize, r.BulkSize)
	}
	if r.Load != 0 {
		m.Set(respLoad, r.Load)
	}
	return codec.Marshal(m)
}

// appendResponse encodes r onto dst — byte-identical to marshalReference
// — and returns the extended slice.
func appendResponse(dst []byte, r *response) []byte {
	return appendTimings(appendResponseBody(dst, r), &r.Timings)
}

// appendResponseBody encodes every field of r except the timings, which
// appendTimings must then append to complete the envelope. The split lets
// the server stamp RespProc and Elapsed after the payload is marshalled
// without marshalling it twice; the tag-based parser takes any field order.
func appendResponseBody(dst []byte, r *response) []byte {
	dst = appendUintField(dst, respCode, uint64(r.Code))
	if r.Message != "" {
		dst = appendStringField(dst, respMessage, r.Message)
	}
	dst = appendBytesField(dst, respPayload, r.Payload)
	if r.Compressed {
		dst = appendBoolField(dst, respCompressed, true)
	}
	if r.BulkSize != 0 {
		dst = appendUintField(dst, respBulkSize, r.BulkSize)
	}
	if r.Load != 0 {
		dst = appendUintField(dst, respLoad, r.Load)
	}
	return dst
}

// appendTimings appends the five server timing fields, the envelope's tail.
func appendTimings(dst []byte, t *serverTimings) []byte {
	dst = appendUintField(dst, respRecvQueueNs, uint64(t.RecvQueue))
	dst = appendUintField(dst, respAppNs, uint64(t.App))
	dst = appendUintField(dst, respSendQueueNs, uint64(t.SendQueue))
	dst = appendUintField(dst, respProcNs, uint64(t.RespProc))
	return appendUintField(dst, respElapsedNs, uint64(t.Elapsed))
}

// parseResponseInto decodes buf into r. r.Payload and r.Message's backing
// follow the same aliasing rule as parseRequestInto: the payload aliases
// buf, so the caller must keep buf alive until it is copied out.
func parseResponseInto(r *response, buf []byte) error {
	*r = response{}
	for len(buf) > 0 {
		key, n := wire.Uvarint(buf)
		if n <= 0 {
			return errTruncatedEnvelope
		}
		buf = buf[n:]
		num, wt := key>>3, key&0x7
		switch wt {
		case 0: // varint
			x, n := wire.Uvarint(buf)
			if n <= 0 {
				return errTruncatedEnvelope
			}
			buf = buf[n:]
			switch num {
			case respCode:
				if x > math.MaxUint8 {
					return errFieldRange
				}
				r.Code = trace.ErrorCode(x)
			case respCompressed:
				r.Compressed = x != 0
			case respRecvQueueNs:
				r.Timings.RecvQueue = time.Duration(x)
			case respAppNs:
				r.Timings.App = time.Duration(x)
			case respSendQueueNs:
				r.Timings.SendQueue = time.Duration(x)
			case respProcNs:
				r.Timings.RespProc = time.Duration(x)
			case respElapsedNs:
				r.Timings.Elapsed = time.Duration(x)
			case respBulkSize:
				r.BulkSize = x
			case respLoad:
				r.Load = x
			}
		case 2: // length-delimited
			length, n := wire.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < length {
				return errTruncatedEnvelope
			}
			field := buf[n : n+int(length)]
			buf = buf[n+int(length):]
			switch num {
			case respMessage:
				r.Message = string(field)
			case respPayload:
				r.Payload = field
			}
		case 1: // 64-bit fixed (no such response field; skip unknowns)
			if len(buf) < 8 {
				return errTruncatedEnvelope
			}
			buf = buf[8:]
		default:
			return fmt.Errorf("stubby: response envelope: unknown wire type %d", wt)
		}
	}
	return nil
}
