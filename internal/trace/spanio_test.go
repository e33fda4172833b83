package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleSpan() *Span {
	var b Breakdown
	for i := range b {
		b[i] = time.Duration(i+1) * time.Millisecond
	}
	return &Span{
		TraceID: 42, SpanID: 7, ParentID: 3,
		Method: "svc/M", Service: "svc",
		ClientCluster: "a", ServerCluster: "b",
		Start:        90 * time.Minute,
		Breakdown:    b,
		RequestBytes: 1234, ResponseBytes: 567,
		CPUCycles: 0.125,
		Err:       Cancelled,
		Hedged:    true,
	}
}

// readSpans collects a dump's spans through ScanSpans.
func readSpans(r io.Reader) ([]*Span, error) {
	var out []*Span
	err := ScanSpans(r, func(s *Span) error {
		out = append(out, s)
		return nil
	})
	return out, err
}

// spansEqual compares spans field-by-field; Span is no longer directly
// comparable since LinkedParents made it a DAG node.
func spansEqual(a, b *Span) bool { return reflect.DeepEqual(a, b) }

func TestSpanRecordRoundTrip(t *testing.T) {
	in := sampleSpan()
	rec := ToRecord(in)
	out := rec.ToSpan()
	if !spansEqual(out, in) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestSpanRecordOKError(t *testing.T) {
	in := sampleSpan()
	in.Err = OK
	rec := ToRecord(in)
	if rec.Error != "" {
		t.Error("OK should serialize as empty error")
	}
	if rec.ToSpan().Err != OK {
		t.Error("OK lost in round trip")
	}
}

func TestWriteReadSpans(t *testing.T) {
	spans := []*Span{sampleSpan(), sampleSpan()}
	spans[1].SpanID = 8
	spans[1].Err = OK
	var buf bytes.Buffer
	if err := WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d spans", len(got))
	}
	for i := range spans {
		if !spansEqual(got[i], spans[i]) {
			t.Fatalf("span %d mismatch", i)
		}
	}
}

func TestReadSpansSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteSpans(&buf, []*Span{sampleSpan()})
	withBlank := "\n" + buf.String() + "\n\n"
	got, err := readSpans(strings.NewReader(withBlank))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d spans", len(got))
	}
}

func TestReadSpansBadJSON(t *testing.T) {
	if _, err := readSpans(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSpanRecordRoundTripProperty(t *testing.T) {
	f := func(tid, sid, pid uint64, req, resp int64, cpu float64, errSel uint8, hedged bool, comps [9]int32) bool {
		s := &Span{
			TraceID: TraceID(tid), SpanID: SpanID(sid), ParentID: SpanID(pid),
			Method: "m", Service: "s",
			ClientCluster: "c1", ServerCluster: "c2",
			RequestBytes: abs64(req), ResponseBytes: abs64(resp),
			CPUCycles: cpu,
			Err:       ErrorCode(errSel % uint8(NumErrorCodes)),
			Hedged:    hedged,
		}
		for i, v := range comps {
			if v < 0 {
				v = -v
			}
			s.Breakdown[i] = time.Duration(v)
		}
		// NaN CPU cycles are not JSON-representable; skip.
		if cpu != cpu {
			return true
		}
		rec := ToRecord(s)
		return spansEqual(rec.ToSpan(), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == -1<<63 {
			return 1<<63 - 1
		}
		return -v
	}
	return v
}
