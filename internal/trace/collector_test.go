package trace

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"
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

func TestCollectorRecordHoldsNoPointers(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 184 {
		t.Errorf("record is %d B, want <= 184", size)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: a chunk holding it would be scanned by the GC", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(record{}), "record")
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
	c := New(WithCapacity(2*chunkLen + 3))
	for i := 0; i < 3*chunkLen; i++ {
		c.Collect(&Span{TraceID: TraceID(i), Method: fmt.Sprintf("m%d", i%7), LinkedParents: []SpanID{SpanID(i)}})
	}
	got := c.Spans()
	if len(got) != 2*chunkLen+3 || c.Overflow() != chunkLen-3 {
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
