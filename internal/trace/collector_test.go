package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"rpcscale/internal/gwp"
)

// spanFields is how many fields Span has. record, Collect and Spans carry
// each of them; a new Span field must be added there before this moves.
const spanFields = 18

// filledSpan returns a span whose every field, found by walking Span with
// reflect, holds a distinct non-zero value derived from seed.
func filledSpan(seed int) *Span {
	s := new(Span)
	next := seed * 1000
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 3, 3))
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		default:
			next++
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Uint8:
				v.SetUint(uint64(next%250 + 1))
			case reflect.Uint64:
				v.SetUint(uint64(next))
			case reflect.Int64:
				v.SetInt(int64(next))
			case reflect.Float64:
				v.SetFloat(float64(next) + 0.5)
			case reflect.String:
				v.SetString(fmt.Sprintf("s%d", next))
			default:
				panic("filledSpan: no filler for " + v.Type().String())
			}
		}
	}
	fill(reflect.ValueOf(s).Elem())
	return s
}

// cloneSpan deep-copies s, so later writes to s leave the copy alone.
func cloneSpan(s *Span) *Span {
	c := *s
	c.LinkedParents = append([]SpanID(nil), s.LinkedParents...)
	return &c
}

func TestCollectorRoundTripsEveryField(t *testing.T) {
	if n := reflect.TypeOf(Span{}).NumField(); n != spanFields {
		t.Fatalf("Span has %d fields, the packed record carries %d: store the new field in record, Collect and Spans", n, spanFields)
	}
	c := New()
	var want []*Span
	for seed := 1; seed <= 3; seed++ {
		s := filledSpan(seed)
		want = append(want, cloneSpan(s))
		c.Collect(s)
	}
	// A span with no linked parents, and one repeating an interned tuple.
	bare := &Span{TraceID: 9, Method: want[0].Method, Service: want[0].Service}
	want = append(want, cloneSpan(bare))
	c.Collect(bare)
	if got := c.Spans(); !reflect.DeepEqual(got, want) {
		for i := range got {
			t.Errorf("span %d:\n got %+v\nwant %+v", i, *got[i], *want[i])
		}
	}
}

// fleetMixSpan is a span as the telemetry plane retains it in the
// benchmark's fleet_mix workload: a random trace ID, a root span, nine
// microsecond-scale components, a 5730 B request with a 16 B reply, and
// the plane's five-way CPU split (ServerApp, then the stack time by its
// byte-weighted shares at a 0.4 compressed fraction), whose in-order sum
// is CPUCycles.
func fleetMixSpan() *Span {
	s := &Span{TraceID: 0x9c3f_51e2_07ad_64b8, SpanID: 36732,
		Method: "svc7.Type/M42", Service: "svc7", ClientCluster: "local", ServerCluster: "local",
		Start:        7*time.Second + 123456789,
		Breakdown:    Breakdown{2310, 9870, 14250, 3120, 18400, 1730, 6240, 12980, 4410},
		RequestBytes: 5730, ResponseBytes: 16,
		CPUByCategory: [gwp.NumCategories]float64{18400, 11548.151782929619, 2594.6160723567937, 962.3459819108016, 1004.8861628027862},
	}
	for _, v := range s.CPUByCategory {
		s.CPUCycles += v
	}
	return s
}

func TestCollectorPacksSpans(t *testing.T) {
	c := New()
	var _ [][]byte = c.chunks // records are bytes, which the GC never scans
	s := fleetMixSpan()
	c.Collect(s)
	if size := len(c.chunks[0]); size > 96 {
		t.Errorf("a fleet_mix span packs into %d B, want <= 96", size)
	}
	t.Logf("a fleet_mix span packs into %d B", len(c.chunks[0]))
	if got := c.Spans(); !reflect.DeepEqual(got[0], s) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", *got[0], *s)
	}
}

func TestCollectorCopiesSpans(t *testing.T) {
	c := New()
	s := filledSpan(1)
	want := cloneSpan(s)
	c.Collect(s)

	s.Method, s.Breakdown[ServerApp], s.LinkedParents[0] = "changed", 1, 1
	got := c.Spans()
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("changing a collected span changed the store:\n got %+v\nwant %+v", *got[0], *want)
	}
	got[0].Method, got[0].CPUByCategory[0], got[0].LinkedParents[0] = "changed", 1, 1
	if again := c.Spans(); !reflect.DeepEqual(again[0], want) {
		t.Fatalf("changing a returned span changed the store:\n got %+v\nwant %+v", *again[0], *want)
	}
}

func TestCollectorChunksKeepOrder(t *testing.T) {
	// Each of these spans packs into 26 bytes, and a chunk holds less
	// than chunkBytes of records, so the retained ones fill at least three.
	const retain, dropped = 3 * chunkBytes / 26, 1000
	c := New(WithCapacity(retain))
	for i := 0; i < retain+dropped; i++ {
		c.Collect(&Span{TraceID: TraceID(i), Method: fmt.Sprintf("m%d", i%7), LinkedParents: []SpanID{SpanID(i)}})
	}
	if len(c.chunks) < 3 {
		t.Fatalf("%d spans filled %d chunks, want >= 3", retain, len(c.chunks))
	}
	got := c.Spans()
	if len(got) != retain || c.Overflow() != dropped {
		t.Fatalf("retained %d, overflow %d", len(got), c.Overflow())
	}
	for i, s := range got {
		if s.TraceID != TraceID(i) || s.Method != fmt.Sprintf("m%d", i%7) || s.LinkedParents[0] != SpanID(i) {
			t.Fatalf("span %d = %+v", i, *s)
		}
	}
}

func TestCollectorCollectWhileReading(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := filledSpan(i % 5)
				s.TraceID = TraceID(g*10000 + i)
				c.Collect(s)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for prev := 0; prev < 8000; {
			spans := c.Spans()
			if len(spans) < prev {
				t.Errorf("store shrank from %d to %d spans", prev, len(spans))
				return
			}
			for _, s := range spans {
				if len(s.LinkedParents) != 3 || s.Method == "" {
					t.Errorf("torn span %+v", *s)
					return
				}
			}
			prev = len(spans)
		}
	}()
	wg.Wait()
	<-done
}

func BenchmarkCollect(b *testing.B) {
	spans := make([]*Span, 256)
	for i := range spans {
		s := filledSpan(i % 5)
		s.Method = fmt.Sprintf("svc%d.Type/M%d", i%13, i%200)
		s.ServerCluster = fmt.Sprintf("cl%d", i%3)
		s.LinkedParents = nil
		spans[i] = s
	}
	c := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<16) == 0 {
			c.Reset() // keep the store at fleet_mix's plane capacity
		}
		c.Collect(spans[i%len(spans)])
	}
}

// fuzzSpans reads spans from data until it runs out; bytes past its end
// read as zero. Each span takes a control byte, its Err, Tier and Motif
// bytes as they are (in range or not), then 8-byte little-endian words:
// TraceID, SpanID, ParentID, Start, the nine components, both sizes,
// CPUCycles, the categories and its linked parents. Control bit 0 makes
// CPUCycles the in-order sum of the categories, bit 1 sets Hedged, bits
// 2-3 pick one of four name tuples, and the high nibble mod 9 is the link
// count.
func fuzzSpans(data []byte) []*Span {
	var out []*Span
	next := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	word := func() uint64 { return binary.LittleEndian.Uint64(next(8)) }
	names := [4][3]string{{"", "", ""}, {"svc.A/Get", "svc", "cl0"}, {"svc.A/Put", "svc", "cl1"}, {"svc.A/Get", "svc", "cl2"}}
	for len(data) > 0 {
		h := next(4)
		nm := names[h[0]>>2&3]
		s := &Span{Err: ErrorCode(h[1]), Tier: Tier(h[2]), Motif: Motif(h[3]), Hedged: h[0]&2 != 0,
			Method: nm[0], Service: nm[1], ClientCluster: nm[2], ServerCluster: nm[2],
			TraceID: TraceID(word()), SpanID: SpanID(word()), ParentID: SpanID(word()), Start: time.Duration(word())}
		for i := range s.Breakdown {
			s.Breakdown[i] = time.Duration(word())
		}
		s.RequestBytes, s.ResponseBytes = int64(word()), int64(word())
		s.CPUCycles = math.Float64frombits(word())
		sum := 0.0
		for i := range s.CPUByCategory {
			s.CPUByCategory[i] = math.Float64frombits(word())
			sum += s.CPUByCategory[i]
		}
		if h[0]&1 != 0 {
			s.CPUCycles = sum
		}
		for k := h[0] >> 4 % 9; k > 0; k-- {
			s.LinkedParents = append(s.LinkedParents, SpanID(word()))
		}
		out = append(out, s)
	}
	return out
}

// sameSpan is reflect.DeepEqual with floats compared by their bits, so a
// NaN or a -0 must come back exactly as it went in.
func sameSpan(a, b *Span) bool {
	bits := func(s *Span) (out [1 + gwp.NumCategories]uint64) {
		out[0] = math.Float64bits(s.CPUCycles)
		for i, v := range s.CPUByCategory {
			out[i+1] = math.Float64bits(v)
		}
		return out
	}
	x, y := *a, *b
	x.CPUCycles, x.CPUByCategory = 0, [gwp.NumCategories]float64{}
	y.CPUCycles, y.CPUByCategory = 0, [gwp.NumCategories]float64{}
	return bits(a) == bits(b) && reflect.DeepEqual(x, y)
}

// FuzzCollectorRoundTrip: whatever the span, Spans returns it exactly as
// Collect was given it. A non-zero fill first collects fleet_mix spans
// until the first chunk has less than maxRecord+fill bytes of room, so
// the spans from data cross into the second chunk. The checked-in corpus
// holds a fleet_mix span, extreme and negative integers, NaN, -0 and ±Inf
// floats with CPUCycles both equal and unequal to the category sum, zero
// and non-zero parents, 0 to 8 linked parents, and out-of-range Err, Tier
// and Motif bytes.
func FuzzCollectorRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, fill uint8, data []byte) {
		c, filled := New(), 0
		for fill > 0 && (len(c.chunks) == 0 || len(c.chunks[0])+maxRecord+int(fill) <= chunkBytes) {
			c.Collect(fleetMixSpan())
			filled++
		}
		want := fuzzSpans(data)
		for _, s := range want {
			c.Collect(cloneSpan(s))
		}
		got := c.Spans()
		if len(got) != filled+len(want) {
			t.Fatalf("got %d spans, want %d", len(got), filled+len(want))
		}
		for i, s := range want {
			if !sameSpan(got[filled+i], s) {
				t.Fatalf("span %d:\n got %+v\nwant %+v", i, *got[filled+i], *s)
			}
		}
	})
}
