package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// SpanRecord is the stable JSON-lines serialization of a Span, one record
// per line. cmd/fleetgen writes dumps through SpanWriter; every reader
// (cmd/tracequery, and cmd/rpcanalyze -in through workload.Replay) decodes
// them one record at a time through ScanSpans. It is a plain data shape so
// external tools (jq, pandas) can use dumps directly.
type SpanRecord struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`

	// LinkedParents are the extra in-edges of a DAG-shaped trace (shared
	// dependencies reached from several parents). Absent for tree-shaped
	// spans and in dumps written before the DAG model; readers treat a
	// missing field as no extra edges.
	LinkedParents []uint64 `json:"linked_parents,omitempty"`

	Method  string `json:"method"`
	Service string `json:"service"`

	// Tier is the method's state discipline ("stateless", "stateful",
	// "cache"). Omitted when stateless — the default every pre-tier dump
	// decodes to.
	Tier string `json:"tier,omitempty"`

	// Motif marks motif-pack spans ("fanin", "cache_hit", "cache_miss",
	// "sidecar", "replica"); omitted for ordinary calls.
	Motif string `json:"motif,omitempty"`

	Client  string `json:"client_cluster"`
	Server  string `json:"server_cluster"`
	StartNs int64  `json:"start_ns"`

	// Components holds the nine latencies in Component order, ns.
	Components [NumComponents]int64 `json:"components_ns"`

	ReqBytes  int64   `json:"req_bytes"`
	RespBytes int64   `json:"resp_bytes"`
	CPUCycles float64 `json:"cpu_cycles,omitempty"`

	// CPUByCat is the per-category cycle split in gwp.Category order
	// (Application, Compression, Networking, Serialization, RPCLibrary).
	// Absent in dumps written before the split; readers fall back to
	// attributing CPUCycles entirely to Application.
	CPUByCat []float64 `json:"cpu_by_cat,omitempty"`

	Error  string `json:"error,omitempty"`
	Hedged bool   `json:"hedged,omitempty"`
}

// ToRecord converts a span to its serialization shape.
func ToRecord(s *Span) SpanRecord {
	r := SpanRecord{
		TraceID:   uint64(s.TraceID),
		SpanID:    uint64(s.SpanID),
		ParentID:  uint64(s.ParentID),
		Method:    s.Method,
		Service:   s.Service,
		Client:    s.ClientCluster,
		Server:    s.ServerCluster,
		StartNs:   int64(s.Start),
		ReqBytes:  s.RequestBytes,
		RespBytes: s.ResponseBytes,
		CPUCycles: s.CPUCycles,
		Hedged:    s.Hedged,
	}
	if len(s.LinkedParents) > 0 {
		r.LinkedParents = make([]uint64, len(s.LinkedParents))
		for i, p := range s.LinkedParents {
			r.LinkedParents[i] = uint64(p)
		}
	}
	if s.Tier != TierStateless {
		r.Tier = s.Tier.String()
	}
	if s.Motif != MotifNone {
		r.Motif = s.Motif.String()
	}
	for i, d := range s.Breakdown {
		r.Components[i] = int64(d)
	}
	if s.HasCPUSplit() {
		r.CPUByCat = append([]float64(nil), s.CPUByCategory[:]...)
	}
	if s.Err.IsError() {
		r.Error = s.Err.String()
	}
	return r
}

// ToSpan converts a record back to a span.
func (r *SpanRecord) ToSpan() *Span {
	s := &Span{
		TraceID:       TraceID(r.TraceID),
		SpanID:        SpanID(r.SpanID),
		ParentID:      SpanID(r.ParentID),
		Method:        r.Method,
		Service:       r.Service,
		ClientCluster: r.Client,
		ServerCluster: r.Server,
		Start:         time.Duration(r.StartNs),
		RequestBytes:  r.ReqBytes,
		ResponseBytes: r.RespBytes,
		Tier:          ParseTier(r.Tier),
		Motif:         ParseMotif(r.Motif),
		CPUCycles:     r.CPUCycles,
		Hedged:        r.Hedged,
	}
	if len(r.LinkedParents) > 0 {
		s.LinkedParents = make([]SpanID, len(r.LinkedParents))
		for i, p := range r.LinkedParents {
			s.LinkedParents[i] = SpanID(p)
		}
	}
	for i, v := range r.Components {
		s.Breakdown[i] = time.Duration(v)
	}
	for i, v := range r.CPUByCat {
		if i >= len(s.CPUByCategory) {
			break
		}
		s.CPUByCategory[i] = v
	}
	if r.Error != "" {
		for code := ErrorCode(0); int(code) < NumErrorCodes; code++ {
			if code.String() == r.Error {
				s.Err = code
				break
			}
		}
	}
	return s
}

// WriteSpans streams spans to w as JSON lines.
func WriteSpans(w io.Writer, spans []*Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(ToRecord(s)); err != nil {
			return fmt.Errorf("trace: encoding span: %w", err)
		}
	}
	return bw.Flush()
}

// SpanWriter streams spans to an underlying writer as JSON lines. It is
// safe for concurrent use, so generation shards can write spans as they
// produce them without materializing the dataset first. Interleaving
// across concurrent writers is arbitrary, but each Write call's records
// land together, in order.
//
// A dump's contract with its readers: the spans of one trace are adjacent
// (cmd/fleetgen writes each trace with one Write call), which is what lets
// a replay rebuild every call graph as soon as its trace ends
// (workload.Replay). Dumps that break it still parse; a trace split across
// the dump is rebuilt as fragments.
type SpanWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	n   uint64
}

// NewSpanWriter returns a writer streaming JSON-lines span records to w.
func NewSpanWriter(w io.Writer) *SpanWriter {
	bw := bufio.NewWriterSize(w, 1<<20)
	return &SpanWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write encodes spans as adjacent records.
func (w *SpanWriter) Write(spans ...*Span) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range spans {
		if err := w.enc.Encode(ToRecord(s)); err != nil {
			return fmt.Errorf("trace: encoding span: %w", err)
		}
		w.n++
	}
	return nil
}

// Count returns how many spans have been written.
func (w *SpanWriter) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Flush writes any buffered records to the underlying writer.
func (w *SpanWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Flush()
}

// ScanSpans streams a JSON-lines span dump to fn one span at a time, so
// arbitrarily large dumps can be analyzed out-of-core with memory bounded
// by a single record. It uses a json.Decoder with a growable buffer, so
// records are not subject to any fixed line-length cap. Scanning stops at
// the first error, including any error returned by fn.
func ScanSpans(r io.Reader, fn func(*Span) error) error {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))
	for n := 1; ; n++ {
		var rec SpanRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("trace: span record %d: %w", n, err)
		}
		if err := fn(rec.ToSpan()); err != nil {
			return err
		}
	}
}
