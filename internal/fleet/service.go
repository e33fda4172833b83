// Package fleet defines the synthetic fleet standing in for the
// production workload the paper measured: a catalog of RPC methods with
// per-method latency, size, fan-out, CPU-cost, and error models, grouped
// into services, with a popularity model calibrated against every anchor
// the paper publishes (DESIGN.md §4 lists them). The catalog is pure
// data + distributions; internal/workload executes it against the
// simulator to produce traces.
package fleet

// ServiceClass groups services by their dominant bottleneck, following
// the paper's §3.3 categorization.
type ServiceClass uint8

// Service classes.
const (
	// Storage services are application-processing- or queue-heavy and
	// move the most bytes (Network Disk, Spanner, Bigtable, ...).
	Storage ServiceClass = iota
	// Compute services are dominated by handler processing time
	// (F1 query execution, ML inference).
	Compute
	// LatencySensitive services are in-memory and RPC-stack-heavy
	// (KV-Store).
	LatencySensitive
	// Analytics services are batch-flavored with low byte volume
	// relative to their call count.
	Analytics
	// Generic is the long tail of internal services.
	Generic
)

// String returns the class name.
func (c ServiceClass) String() string {
	switch c {
	case Storage:
		return "storage"
	case Compute:
		return "compute"
	case LatencySensitive:
		return "latency-sensitive"
	case Analytics:
		return "analytics"
	default:
		return "generic"
	}
}

// Service is one application service owning a set of RPC methods.
type Service struct {
	Name    string
	Class   ServiceClass
	Methods []*Method
	Sidecar string // method name of the service's mesh proxy hop
}

// StudiedService is one row of the paper's Table 1: the eight production
// services selected for the in-depth latency analysis.
type StudiedService struct {
	Service     string
	Client      string // typical caller
	RPCSize     int64  // typical request size, bytes
	Method      string // the studied method (fully qualified)
	Description string
	Class       ServiceClass
	// Dominant is the latency component category the paper found
	// dominant: "app", "queue", or "stack" (§3.3.1).
	Dominant string
}

// EightServices reproduces Table 1.
func EightServices() []StudiedService {
	return []StudiedService{
		{"bigtable", "kvstore", 1024, "bigtable/SearchValue", "Search value", Storage, "app"},
		{"networkdisk", "bigtable", 32 * 1024, "networkdisk/Write", "Read from SSD", Storage, "app"},
		{"ssdcache", "bigquery", 400, "ssdcache/Lookup", "Look up streaming data", Storage, "queue"},
		{"videometadata", "videosearch", 32 * 1024, "videometadata/GetMetadata", "Get metadata", Storage, "queue"},
		{"spanner", "netinfo", 800, "spanner/ReadRows", "Read rows", Storage, "app"},
		{"f1", "f1", 75, "f1/ProcessPacket", "Process data packet", Compute, "app"},
		{"mlinference", "mlclient", 512, "mlinference/Infer", "Perform inference", Compute, "app"},
		{"kvstore", "recommender", 128, "kvstore/Search", "Search value", LatencySensitive, "stack"},
	}
}
