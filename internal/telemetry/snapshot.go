package telemetry

import (
	"time"

	"rpcscale/internal/monarch"
	"rpcscale/internal/stats"
)

// Snapshot is a compact, JSON-serializable summary of what one Plane
// observed: the call volume and the merged latency distribution. It is
// the unit of cross-process telemetry transfer — each cluster-harness
// child serializes a Snapshot over its result pipe, and the parent merges
// them with MergeSnapshots to render fleet-wide latency from real traffic.
type Snapshot struct {
	// Calls counts spans observed (sampled or not).
	Calls uint64 `json:"calls"`
	// Latency is the merged rpc/latency distribution (ns) across every
	// (service, method, cluster) stream the plane recorded.
	Latency stats.HistDump `json:"latency"`
}

// Snapshot flushes the plane and summarizes its state. The latency
// histogram merges every rpc/latency stream in the Monarch DB, so it
// covers all methods and clusters this plane observed.
func (p *Plane) Snapshot() Snapshot {
	s := Snapshot{Calls: p.Calls()}
	lat := monarch.MergeDistAcross(p.Monarch().Query(MetricLatency, nil, time.Time{}, time.Time{}))
	if lat == nil {
		lat = stats.NewLatencyHist()
	}
	s.Latency = lat.Export()
	return s
}

// LatencyHist reconstructs the snapshot's latency distribution.
func (s *Snapshot) LatencyHist() *stats.Hist {
	return stats.Import(s.Latency)
}

// MergeSnapshots folds per-process snapshots into one fleet-wide view:
// counts add and latency histograms merge (they share the NewLatencyHist
// shape).
func MergeSnapshots(snaps []Snapshot) Snapshot {
	var out Snapshot
	lat := stats.NewLatencyHist()
	for i := range snaps {
		s := &snaps[i]
		out.Calls += s.Calls
		lat.Merge(s.LatencyHist())
	}
	out.Latency = lat.Export()
	return out
}
