// Package trace implements a Dapper-style distributed tracing substrate:
// spans carrying the paper's nine-component RPC latency breakdown, call
// graphs reconstructed from parent links, and a sampling collector.
//
// Both data sources feed it: the real RPC stack (internal/stubby) emits
// spans measured on live TCP connections, and the fleet simulator
// (internal/sim) emits spans for synthetic RPCs. Every figure in the
// paper's evaluation is computed from collections of these spans.
package trace

import (
	"fmt"
	"time"

	"rpcscale/internal/gwp"
)

// Component indexes the nine latency components of an RPC, following
// Figure 9 of the paper. The order follows the life of a request from the
// client's send queue to the client's receive queue.
type Component int

// The nine components of RPC completion time.
const (
	ClientSendQueue Component = iota
	ReqProcStack              // request RPC processing + network stack
	ReqNetworkWire            // request propagation incl. network queuing
	ServerRecvQueue
	ServerApp // application handler, incl. nested RPC calls
	ServerSendQueue
	RespProcStack // response RPC processing + network stack
	RespNetworkWire
	ClientRecvQueue

	NumComponents int = iota
)

var componentNames = [NumComponents]string{
	"ClientSendQueue",
	"ReqProcStack",
	"ReqNetworkWire",
	"ServerRecvQueue",
	"ServerApp",
	"ServerSendQueue",
	"RespProcStack",
	"RespNetworkWire",
	"ClientRecvQueue",
}

var componentLabels = [NumComponents]string{
	"Client Send Queue",
	"Request Processing+Net Stack",
	"Request Network Wire",
	"Server Recv Queue",
	"Server Application",
	"Server Send Queue",
	"Resp Processing+Net Stack",
	"Resp Network Wire",
	"Client Recv Queue",
}

// String returns the compact component name.
func (c Component) String() string {
	if c < 0 || int(c) >= NumComponents {
		return fmt.Sprintf("Component(%d)", int(c))
	}
	return componentNames[c]
}

// Label returns the human-readable label used in the paper's figures.
func (c Component) Label() string {
	if c < 0 || int(c) >= NumComponents {
		return c.String()
	}
	return componentLabels[c]
}

// Components lists all nine components in order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Breakdown holds the per-component latencies of one RPC.
type Breakdown [NumComponents]time.Duration

// Total returns the RPC completion time (RCT): the sum of all components.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, v := range b {
		t += v
	}
	return t
}

// Tax returns the RPC latency tax: everything except application
// processing (§3.1 of the paper).
func (b *Breakdown) Tax() time.Duration { return b.Total() - b[ServerApp] }

// TaxRatio returns Tax/Total in [0, 1], or 0 for a zero-duration RPC.
func (b *Breakdown) TaxRatio() float64 {
	total := b.Total()
	if total <= 0 {
		return 0
	}
	return float64(b.Tax()) / float64(total)
}

// Queue returns the total queuing latency: the four queue components.
func (b *Breakdown) Queue() time.Duration {
	return b[ClientSendQueue] + b[ServerRecvQueue] + b[ServerSendQueue] + b[ClientRecvQueue]
}

// Stack returns the RPC processing + network stack latency, request and
// response sides combined.
func (b *Breakdown) Stack() time.Duration { return b[ReqProcStack] + b[RespProcStack] }

// Wire returns the network wire latency, both directions.
func (b *Breakdown) Wire() time.Duration { return b[ReqNetworkWire] + b[RespNetworkWire] }

// Dominant returns the component with the largest latency.
func (b *Breakdown) Dominant() Component {
	best := Component(0)
	for c := 1; c < NumComponents; c++ {
		if b[c] > b[best] {
			best = Component(c)
		}
	}
	return best
}

// Add accumulates other into b (used when averaging breakdowns).
func (b *Breakdown) Add(other *Breakdown) {
	for i := range b {
		b[i] += other[i]
	}
}

// Scale divides every component by n; no-op when n <= 0.
func (b *Breakdown) Scale(n int) {
	if n <= 0 {
		return
	}
	for i := range b {
		b[i] /= time.Duration(n)
	}
}

// ErrorCode enumerates RPC outcome classes, following the canonical status
// space of Stubby/gRPC restricted to the classes in the paper's Fig. 23.
type ErrorCode uint8

// RPC outcome codes.
const (
	OK ErrorCode = iota
	Cancelled
	EntityNotFound
	NoResource
	NoPermission
	DeadlineExceeded
	Unavailable
	Internal
	InvalidArgument

	NumErrorCodes int = iota
)

var errorNames = [NumErrorCodes]string{
	"OK", "Cancelled", "EntityNotFound", "NoResource", "NoPermission",
	"DeadlineExceeded", "Unavailable", "Internal", "InvalidArgument",
}

// String returns the code name.
func (e ErrorCode) String() string {
	if int(e) >= NumErrorCodes {
		return fmt.Sprintf("ErrorCode(%d)", int(e))
	}
	return errorNames[e]
}

// IsError reports whether the code is a failure.
func (e ErrorCode) IsError() bool { return e != OK }

// Tier classifies a method by its state discipline, following the
// three-tier decomposition of "Complexity at Scale" (stateless service
// layers, stateful/database layers, and the memcached tier). The zero
// value is TierStateless, which is also what dumps written before the
// tier tag existed decode to.
type Tier uint8

// Method tiers.
const (
	TierStateless Tier = iota
	TierStateful
	TierCache

	NumTiers int = iota
)

var tierNames = [NumTiers]string{"stateless", "stateful", "cache"}

// String returns the tier name.
func (t Tier) String() string {
	if int(t) >= NumTiers {
		return fmt.Sprintf("Tier(%d)", int(t))
	}
	return tierNames[t]
}

// ParseTier maps a tier name back to its code; unknown names (including
// the empty string of pre-tier dumps) decode to TierStateless.
func ParseTier(s string) Tier {
	for i, n := range tierNames {
		if n == s {
			return Tier(i)
		}
	}
	return TierStateless
}

// Motif marks a span produced by one of the call-graph motif packs
// (internal/fleet): a shared dependency reached through fan-in, a
// cache-aside lookup that hit or missed, a sidecar proxy hop, or a
// cross-datacenter replication write. MotifNone (the zero value, omitted
// from dumps) is an ordinary call.
type Motif uint8

// Span motifs.
const (
	MotifNone Motif = iota
	MotifFanIn
	MotifCacheHit
	MotifCacheMiss
	MotifSidecar
	MotifReplica

	NumMotifs int = iota
)

var motifNames = [NumMotifs]string{"", "fanin", "cache_hit", "cache_miss", "sidecar", "replica"}

// String returns the motif name ("" for MotifNone).
func (m Motif) String() string {
	if int(m) >= NumMotifs {
		return fmt.Sprintf("Motif(%d)", int(m))
	}
	return motifNames[m]
}

// ParseMotif maps a motif name back to its code; unknown names decode to
// MotifNone.
func ParseMotif(s string) Motif {
	for i, n := range motifNames {
		if i > 0 && n == s {
			return Motif(i)
		}
	}
	return MotifNone
}

// TraceID identifies one RPC call graph; all spans of the graph share it.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// Span records one RPC: identity, placement, latency breakdown, sizes,
// CPU cost, and outcome. This is the unit of analysis for the entire
// characterization.
type Span struct {
	TraceID  TraceID
	SpanID   SpanID
	ParentID SpanID // 0 for the root RPC of a graph

	// LinkedParents are additional logical parents beyond ParentID:
	// production call graphs are DAGs, and a shared dependency reached
	// from several callers keeps one primary parent (ParentID, for
	// Dapper compatibility) while the extra in-edges ride here. Empty
	// for tree-shaped spans and for dumps written before the DAG model.
	LinkedParents []SpanID

	Method  string // fully qualified method, e.g. "networkdisk.Disk/Write"
	Service string // owning service, e.g. "networkdisk"

	// Tier is the method's state discipline (stateless/stateful/cache).
	Tier Tier

	// Motif marks spans synthesized by a graph-motif pack (sidecar hops,
	// cache lookups, replication writes, shared fan-in dependencies).
	Motif Motif

	ClientCluster string // cluster the caller ran in
	ServerCluster string // cluster the callee ran in

	Start     time.Duration // start offset within the observation window
	Breakdown Breakdown

	RequestBytes  int64
	ResponseBytes int64

	// CPUCycles is the normalized CPU cost of serving this RPC
	// (architecture-neutral units, as in Fig. 21). Zero means the sample
	// was not annotated with cost information, matching the paper's note
	// that not all Dapper samples carry CPU annotations.
	CPUCycles float64

	// CPUByCategory splits CPUCycles across the GWP taxonomy (Fig. 20),
	// indexed by gwp.Category. An all-zero array means the sample carries
	// only the total; consumers fall back to attributing everything to
	// gwp.Application, as dumps written before the split did implicitly.
	CPUByCategory [gwp.NumCategories]float64

	Err    ErrorCode
	Hedged bool // true if this call was a hedging duplicate
}

// Latency returns the RPC completion time.
func (s *Span) Latency() time.Duration { return s.Breakdown.Total() }

// HasCPUSplit reports whether the span carries the per-category cycle
// attribution (as opposed to only a total in CPUCycles).
func (s *Span) HasCPUSplit() bool {
	for _, v := range s.CPUByCategory {
		if v != 0 {
			return true
		}
	}
	return false
}

// RecordCycles attributes the span's CPU cost to p: by category when the
// span carries the split, otherwise the whole total to gwp.Application,
// which is what dumps written before the split meant.
func (s *Span) RecordCycles(p *gwp.Profiler) {
	switch {
	case s.HasCPUSplit():
		p.Record(s.Service, s.Method, &s.CPUByCategory)
	case s.CPUCycles > 0:
		var app [gwp.NumCategories]float64
		app[gwp.Application] = s.CPUCycles
		p.Record(s.Service, s.Method, &app)
	}
}

// SameCluster reports whether client and server were co-located in one
// cluster — the filter used throughout §3.3.
func (s *Span) SameCluster() bool { return s.ClientCluster == s.ServerCluster }
