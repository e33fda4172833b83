package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Start and End are nanoseconds on the recorder's clock;
// Parent is the index of the causing span in the same recorder, -1 for a
// root. Spans of one request share Call.
type span struct {
	Name   string
	Call   int32
	Parent int32
	Start  int64
	End    int64
}

// recorder keeps spans in memory for the length of a traced phase; they are
// written out once, when the benchmark ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, call, parent int32) int32 {
	r.spans = append(r.spans, span{Name: name, Call: call, Parent: parent, Start: r.now()})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].End = r.now() }

// add records a span whose interval is already known.
func (r *recorder) add(name string, call, parent int32, start, end int64) int32 {
	r.spans = append(r.spans, span{Name: name, Call: call, Parent: parent, Start: start, End: end})
	return int32(len(r.spans) - 1)
}

// durations groups span durations (ns) by span name.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for i := range spans {
		out[spans[i].Name] = append(out[spans[i].Name], float64(spans[i].End-spans[i].Start))
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children are counted once and
// a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int32][]iv)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			ps := &spans[p]
			s, e := max(spans[i].Start, ps.Start), min(spans[i].End, ps.End)
			if e > s {
				kids[p] = append(kids[p], iv{s, e})
			}
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		var covered, reach int64
		for k, v := range ivs {
			if k == 0 || v.s > reach {
				covered += v.e - v.s
				reach = v.e
			} else if v.e > reach {
				covered += v.e - reach
				reach = v.e
			}
		}
		self[i] -= covered
	}
	return self
}

// traceLine is the JSON-lines form of a span in <workload>.trace.jsonl.
type traceLine struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Call    int32  `json:"call"`
	Phase   string `json:"phase"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// resetTrace empties the trace file of an earlier run; phases then append.
func resetTrace(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// writeTrace appends the spans of one phase to path as JSON lines. IDs are
// local to the phase.
func writeTrace(path, phase string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		if err := enc.Encode(traceLine{ID: i, Parent: int(s.Parent), Call: s.Call, Phase: phase,
			Name: s.Name, StartNs: s.Start, EndNs: s.End, SelfNs: self[i]}); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
