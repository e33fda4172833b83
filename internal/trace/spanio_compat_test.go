package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// oldFormatLine is a dump line exactly as pre-DAG builds wrote it: no
// linked_parents, tier, or motif keys. It must keep parsing forever.
const oldFormatLine = `{"trace_id":42,"span_id":7,"parent_id":3,"method":"svc/M","service":"svc","client_cluster":"a","server_cluster":"b","start_ns":5400000000000,"components_ns":[1000000,2000000,3000000,4000000,5000000,6000000,7000000,8000000,9000000],"req_bytes":1234,"resp_bytes":567,"cpu_cycles":0.125}`

func TestOldFormatDumpParses(t *testing.T) {
	spans, err := readSpans(strings.NewReader(oldFormatLine + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.LinkedParents != nil {
		t.Errorf("LinkedParents = %v, want nil", s.LinkedParents)
	}
	if s.Tier != TierStateless {
		t.Errorf("Tier = %v, want stateless default", s.Tier)
	}
	if s.Motif != MotifNone {
		t.Errorf("Motif = %v, want none default", s.Motif)
	}
	if s.Method != "svc/M" || s.ParentID != 3 || s.RequestBytes != 1234 {
		t.Errorf("pre-DAG fields corrupted: %+v", s)
	}
}

func TestUnknownTierMotifFallBack(t *testing.T) {
	// A dump from a future build with names this build doesn't know must
	// still load, falling back to the zero values.
	line := strings.Replace(oldFormatLine, `"method"`,
		`"tier":"quantum","motif":"timewarp","method"`, 1)
	spans, err := readSpans(strings.NewReader(line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spans[0].Tier != TierStateless || spans[0].Motif != MotifNone {
		t.Errorf("unknown names must decode to defaults, got tier=%v motif=%v",
			spans[0].Tier, spans[0].Motif)
	}
}

func TestDAGSpanRoundTripsByteIdentical(t *testing.T) {
	in := sampleSpan()
	in.LinkedParents = []SpanID{11, 12}
	in.Tier = TierCache
	in.Motif = MotifFanIn

	first, err := json.Marshal(ToRecord(in))
	if err != nil {
		t.Fatal(err)
	}
	var rec SpanRecord
	if err := json.Unmarshal(first, &rec); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(ToRecord(rec.ToSpan()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("serialization not stable:\n first=%s\nsecond=%s", first, second)
	}
}

func TestDAGFieldsOmittedWhenDefault(t *testing.T) {
	// Tree-shaped stateless spans serialize without any DAG keys, so
	// no-motif dumps stay readable by pre-DAG tools and stay the same size.
	out, err := json.Marshal(ToRecord(sampleSpan()))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"linked_parents", "tier", "motif"} {
		if bytes.Contains(out, []byte(key)) {
			t.Errorf("default span serialized %q: %s", key, out)
		}
	}
	in := sampleSpan()
	in.Tier = TierStateful
	in.Motif = MotifSidecar
	in.LinkedParents = []SpanID{9}
	out, err = json.Marshal(ToRecord(in))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"linked_parents":[9]`, `"tier":"stateful"`, `"motif":"sidecar"`} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("missing %s in %s", want, out)
		}
	}
}
