package telemetry

// The data-plane half of the Plane's stubby.Observer surface: the
// multi-core data plane (DESIGN.md §16) reports codec-pool utilization
// into the same Monarch DB as the call metrics.

// CodecJobEnqueued records one seal/open job handed to a connection's
// codec workers, with the queue depth observed at submit time — the live
// signal for whether the pipelined data plane is keeping its workers fed
// or backing up.
func (p *Plane) CodecJobEnqueued(queued int) {
	p.codecJobs.Add(1)
	p.record(aggKey{kind: kindCodecJob}, true, float64(queued))
}

// CodecJobs returns the total jobs submitted to codec worker pools.
func (p *Plane) CodecJobs() uint64 { return p.codecJobs.Load() }
