// Package rpcscale reproduces "A Cloud-Scale Characterization of Remote
// Procedure Calls" (Seemakhupt et al., SOSP 2023) as runnable programs: a
// Stubby-style RPC stack, Dapper-style tracing, Monarch-style monitoring,
// GWP-style CPU profiling, and a discrete fleet simulator with a method
// catalog calibrated to the paper's published anchors.
//
// The root package exports nothing; it holds the figure-by-figure
// benchmarks. The entry points are the commands under cmd/ and the
// programs under examples/, which configure the RPC stack with
// internal/stubby's Options and plug in the observability plane with
// internal/telemetry's Plane.Apply. The packages that do the work live
// under internal/.
package rpcscale
