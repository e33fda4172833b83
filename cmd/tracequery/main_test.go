package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rpcscale/internal/trace"
)

// span builds one dump record whose latency is ms milliseconds.
func span(tid, sid, parent uint64, method string, ms int) *trace.Span {
	s := &trace.Span{
		TraceID: trace.TraceID(tid), SpanID: trace.SpanID(sid), ParentID: trace.SpanID(parent),
		Method: method, Service: method[:strings.IndexByte(method, '/')],
		ClientCluster: "c1", ServerCluster: "c2",
	}
	s.Breakdown[0] = time.Duration(ms) * time.Millisecond
	return s
}

// testDump is a seven-span dump: trace 1 is a DAG whose shared node
// store/Read sits under both mid/A and mid/B, and whose last span is
// written after trace 3, so the trace is split in two fragments; trace 2
// carries a cache_hit span; three spans errored.
func testDump() []*trace.Span {
	root1 := span(1, 1, 0, "front/Get", 10)
	a := span(1, 2, 1, "mid/A", 4)
	a.Tier = trace.TierStateful
	b := span(1, 3, 1, "mid/B", 3)
	b.Err = trace.EntityNotFound
	shared := span(1, 4, 2, "store/Read", 2)
	shared.LinkedParents = []trace.SpanID{3}
	shared.Motif = trace.MotifFanIn
	shared.Tier = trace.TierStateful
	root2 := span(2, 5, 0, "front/Get", 20)
	root2.Err = trace.Cancelled
	hit := span(2, 6, 5, "cache/Lookup", 1)
	hit.Motif = trace.MotifCacheHit
	hit.Tier = trace.TierCache
	hit.Err = trace.Unavailable
	lone := span(3, 7, 0, "mid/A", 6)
	return []*trace.Span{root1, a, b, root2, hit, lone, shared}
}

// writeDump writes content to a file in a test directory and returns its
// path.
func writeDump(t *testing.T, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func dumpBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteSpans(&buf, testDump()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tracequery runs the command with args and returns its stdout, stderr
// and exit status.
func tracequery(args ...string) (string, string, int) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestQueriesGolden(t *testing.T) {
	in := writeDump(t, dumpBytes(t))
	census := "7 spans, 1 fan-in edges\n" +
		"tiers:\n" +
		"  stateless         4  (57.14%)\n" +
		"  stateful          2  (28.57%)\n" +
		"  cache             1  (14.29%)\n" +
		"motifs:\n" +
		"  fanin             1  (14.29%)\n" +
		"  cache_hit         1  (14.29%)\n" +
		"  cache_miss        0  ( 0.00%)\n" +
		"  sidecar           0  ( 0.00%)\n" +
		"  replica           0  ( 0.00%)\n"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"method", "front/Get"}, "front/Get: 2 calls, 1 errors\n" +
			"  P1 10ms  P50 10ms  P90 10ms  P99 10ms  max 10ms\n"},
		{[]string{"method", "nope/X"}, "no spans for nope/X\n"},
		{[]string{"trace", "1"}, "graph: 4 spans, 1 fan-in edges, depth 2, width 2\n" +
			"front/Get  10ms  (c1 -> c2)\n" +
			"  mid/A  4ms  (c1 -> c2)\n" +
			"    store/Read  2ms  (c1 -> c2)  {fanin}  also under 1 more parent(s)\n" +
			"  mid/B  3ms  (c1 -> c2)  [EntityNotFound]\n"},
		{[]string{"trace", "2"}, "front/Get  20ms  (c1 -> c2)  [Cancelled]\n" +
			"  cache/Lookup  1ms  (c1 -> c2)  [Unavailable]  {cache_hit}\n"},
		{[]string{"trace", "9"}, "no spans for trace 9\n"},
		{[]string{"top"}, " 28.57%  front/Get\n" +
			" 28.57%  mid/A\n" +
			" 14.29%  cache/Lookup\n" +
			" 14.29%  mid/B\n" +
			" 14.29%  store/Read\n"},
		{[]string{"top", "3"}, " 28.57%  front/Get\n" +
			" 28.57%  mid/A\n" +
			" 14.29%  cache/Lookup\n"},
		{[]string{"errors"}, "3/7 spans errored (42.86%)\n" +
			"  Cancelled           33.33%\n" +
			"  EntityNotFound      33.33%\n" +
			"  Unavailable         33.33%\n"},
		{[]string{"motifs"}, census},
		{[]string{"-motif", "cache_hit", "errors"}, "1/1 spans errored (100.00%)\n" +
			"  Unavailable        100.00%\n"},
		{[]string{"-motif", "fanin", "top"}, "100.00%  store/Read\n"},
		{[]string{"-motif", "sidecar", "top"}, "no spans with motif sidecar\n"},
		// trace and motifs ignore -motif.
		{[]string{"-motif", "sidecar", "motifs"}, census},
	} {
		stdout, stderr, code := tracequery(append([]string{"-in", in}, tc.args...)...)
		if code != 0 || stderr != "" {
			t.Errorf("%v: exit %d, stderr %q", tc.args, code, stderr)
		}
		if stdout != tc.want {
			t.Errorf("%v:\n got %q\nwant %q", tc.args, stdout, tc.want)
		}
	}
}

func TestMalformedRecordPrintsOnlyItsError(t *testing.T) {
	in := writeDump(t, append(dumpBytes(t), "{not json}\n"...))
	for _, q := range []string{"top", "errors", "motifs", "trace", "method"} {
		stdout, stderr, code := tracequery("-in", in, q, "1")
		if code != 1 || stdout != "" || !strings.Contains(stderr, "span record 8") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 1, nothing, the record's error", q, code, stdout, stderr)
		}
	}
}

func TestEmptyDumpIsAnError(t *testing.T) {
	in := writeDump(t, nil)
	for _, q := range []string{"errors", "motifs", "top"} {
		stdout, stderr, code := tracequery("-in", in, q)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "span dump is empty") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 1 and an empty-dump error", q, code, stdout, stderr)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	in := writeDump(t, dumpBytes(t))
	for _, args := range [][]string{
		{"top", "abc"}, {"top", "-3"}, {"top", "0"},
		{}, {"method"}, {"trace"}, {"trace", "x"}, {"bogus"},
		{"-motif", "nope", "top"},
	} {
		stdout, stderr, code := tracequery(append([]string{"-in", in}, args...)...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 and a usage error", args, code, stdout, stderr)
		}
	}
}
