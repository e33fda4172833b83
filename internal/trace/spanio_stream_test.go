package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// Regression test for the old bufio.Scanner path, which failed on any
// record longer than its fixed 1 MiB buffer. A >1 MiB span record must
// now parse.
func TestReadSpansOversizedRecord(t *testing.T) {
	s := &Span{
		TraceID: 1, SpanID: 2, Method: strings.Repeat("m", 2<<20),
		Service: "svc", RequestBytes: 10, ResponseBytes: 20,
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, []*Span{s}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 2<<20 {
		t.Fatalf("record only %d bytes; test needs > 1 MiB", buf.Len())
	}
	got, err := readSpans(&buf)
	if err != nil {
		t.Fatalf("oversized record: %v", err)
	}
	if len(got) != 1 || got[0].Method != s.Method {
		t.Fatal("oversized record did not round-trip")
	}
}

func TestScanSpansStreams(t *testing.T) {
	spans := []*Span{
		{TraceID: 1, SpanID: 1, Method: "a/A", Service: "a"},
		{TraceID: 1, SpanID: 2, ParentID: 1, Method: "b/B", Service: "b"},
		{TraceID: 2, SpanID: 3, Method: "c/C", Service: "c"},
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var methods []string
	if err := ScanSpans(&buf, func(s *Span) error {
		methods = append(methods, s.Method)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(methods) != 3 || methods[0] != "a/A" || methods[2] != "c/C" {
		t.Fatalf("scanned %v", methods)
	}
}

func TestScanSpansPropagatesCallbackError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, []*Span{{TraceID: 1, SpanID: 1, Method: "a/A"}, {TraceID: 1, SpanID: 2, Method: "b/B"}}); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	seen := 0
	err := ScanSpans(&buf, func(*Span) error {
		seen++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if seen != 1 {
		t.Fatalf("callback ran %d times after error", seen)
	}
}

func TestScanSpansBadRecord(t *testing.T) {
	if err := ScanSpans(strings.NewReader("{not json}\n"), func(*Span) error { return nil }); err == nil {
		t.Fatal("bad record should error")
	}
}

func TestSpanWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewSpanWriter(&buf)
	want := []*Span{
		{TraceID: 1, SpanID: 1, Method: "a/A", Service: "a", RequestBytes: 5},
		{TraceID: 2, SpanID: 2, Method: "b/B", Service: "b", ResponseBytes: 9},
	}
	for _, s := range want {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 2 {
		t.Fatalf("count = %d", w.Count())
	}
	got, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Method != "a/A" || got[1].ResponseBytes != 9 {
		t.Fatalf("round trip got %+v", got)
	}
}
