package telemetry

// The data-plane half of the Plane's stubby.Observer surface: the
// multi-core data plane (DESIGN.md §16) reports codec-pool utilization and
// adaptive compression skips into the same Monarch DB as the call metrics.

// CodecJobEnqueued records one seal/open job handed to a connection's
// codec workers, with the queue depth observed at submit time — the live
// signal for whether the pipelined data plane is keeping its workers fed
// or backing up.
func (p *Plane) CodecJobEnqueued(queued int) {
	p.codecJobs.Add(1)
	p.record(aggKey{kind: kindCodecJob}, true, float64(queued))
}

// CompressSkipped records one payload the adaptive compression gate sent
// uncompressed for method — compression-tax cycles not spent.
func (p *Plane) CompressSkipped(method string, bytes int) {
	p.compressSkips.Add(1)
	p.compressSkippedBytes.Add(uint64(bytes))
	p.record(aggKey{kind: kindCompressSkip, method: method}, false, 0)
}

// CodecJobs returns the total jobs submitted to codec worker pools.
func (p *Plane) CodecJobs() uint64 { return p.codecJobs.Load() }

// CompressSkips returns the total payloads adaptive compression skipped.
func (p *Plane) CompressSkips() uint64 { return p.compressSkips.Load() }

// CompressSkippedBytes returns the total payload bytes those skips
// covered.
func (p *Plane) CompressSkippedBytes() uint64 { return p.compressSkippedBytes.Load() }
