package workload

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// RunConfig sizes a dataset generation run. Zero fields select defaults
// that keep `go test` fast; cmd/fleetgen scales them to paper volume.
type RunConfig struct {
	Seed uint64

	// MethodSamples is the per-method stratified sample count (the
	// paper requires >= 100 samples per method for well-defined P99s).
	MethodSamples int
	// StudiedSamples is the per-method sample count for the eight
	// studied services (Figs. 14-18 need more resolution).
	StudiedSamples int
	// VolumeRoots is the number of popularity-weighted call samples
	// (fleet-mix figures).
	VolumeRoots int
	// Trees is the number of materialized call trees.
	Trees int
	// MaxDepth and TreeBudget bound each tree.
	MaxDepth   int
	TreeBudget int

	// Shards is the generation parallelism. Results are deterministic
	// for a fixed (Seed, Shards) pair; the default is 8.
	Shards int

	// RetainSpans makes Run buffer every generated span into a Dataset
	// on top of streaming it to the caller's sinks. Generate forces it;
	// pure streaming consumers leave it false and run at bounded memory
	// regardless of the configured volume.
	RetainSpans bool
}

// DefaultRun returns the test-scale run configuration.
func DefaultRun() RunConfig {
	return RunConfig{
		Seed:           1,
		MethodSamples:  120,
		StudiedSamples: 1500,
		VolumeRoots:    60000,
		Trees:          800,
		MaxDepth:       8,
		TreeBudget:     3000,
	}
}

func (c RunConfig) withDefaults() RunConfig {
	d := DefaultRun()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.MethodSamples == 0 {
		c.MethodSamples = d.MethodSamples
	}
	if c.StudiedSamples == 0 {
		c.StudiedSamples = d.StudiedSamples
	}
	if c.VolumeRoots == 0 {
		c.VolumeRoots = d.VolumeRoots
	}
	if c.Trees == 0 {
		c.Trees = d.Trees
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = d.MaxDepth
	}
	if c.TreeBudget == 0 {
		c.TreeBudget = d.TreeBudget
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	return c
}

// ExoObservation pairs a studied-service span with the exogenous state of
// its serving cluster at call time (Fig. 17/18 raw material).
type ExoObservation struct {
	Span *trace.Span
	Exo  sim.Exo
}

// Dataset is everything one generation run produces. All downstream
// analyses (internal/core) consume Datasets.
type Dataset struct {
	Cat  *fleet.Catalog
	Topo *sim.Topology

	// MethodSpans holds the stratified per-method samples, keyed by
	// method name. Client/server placement follows each method's
	// locality model; times are uniform over 24h.
	MethodSpans map[string][]*trace.Span

	// VolumeSpans is the popularity-weighted fleet call mix, including
	// hedging-induced cancellations.
	VolumeSpans []*trace.Span

	// TreeSpans is the materialized call-tree sample; trace.BuildGraphs
	// reconstructs the graphs from it.
	TreeSpans []*trace.Span

	// DescendantsByMethod / AncestorsByMethod are exact per-method
	// samples gathered during generation (no materialization needed).
	DescendantsByMethod map[string]*stats.Sample
	AncestorsByMethod   map[string]*stats.Sample

	// ExoByMethod holds studied-method spans paired with cluster state.
	ExoByMethod map[string][]ExoObservation

	// GraphStats summarizes every fully-generated call graph (stratified
	// and materialized roots; depth-truncated volume roots are excluded).
	GraphStats []GraphStat

	// Profile is the GWP cycle attribution accumulated over the run.
	Profile *gwp.Snapshot
}

// Generate runs the full pipeline and materializes everything into a
// Dataset. It is Run with span retention forced on and no caller sinks:
// the buffered path that existing figure analyses and tests consume.
//
// Cancelling ctx stops every shard at its next sample boundary; the
// partial dataset accumulated so far is still returned (and is still
// deterministic up to the truncation point), so long runs can be
// interrupted without losing everything.
func Generate(ctx context.Context, cat *fleet.Catalog, topo *sim.Topology, cfg RunConfig) *Dataset {
	cfg = cfg.withDefaults()
	cfg.RetainSpans = true
	_, ds := Run(ctx, cat, topo, cfg, nil)
	return ds
}

// Run executes the generation pipeline, sharded across cfg.Shards
// goroutines, streaming each shard's output to the sink built by factory
// for that shard index. factory is called sequentially for shards
// 0..Shards-1 before any generation starts and may be nil (or return
// nil) when only retention or the CPU profile is wanted; each returned
// sink is used by a single shard goroutine only, so sinks need no
// internal locking.
//
// Output is deterministic for a fixed (Seed, Shards) pair: each shard's
// stream depends only on its own derived seed, each shard records cycles
// into a private profiler, and profilers (like any caller-side shard
// accumulators) are merged in shard-index order.
//
// The returned Dataset is nil unless cfg.RetainSpans is set, in which
// case every span is additionally buffered Dataset-style (this is what
// Generate does). With RetainSpans off, memory stays bounded by the
// sinks' own state however large the configured volume is.
func Run(ctx context.Context, cat *fleet.Catalog, topo *sim.Topology, cfg RunConfig, factory func(shard int) SpanSink) (*gwp.Snapshot, *Dataset) {
	cfg = cfg.withDefaults()

	studied := make(map[string]bool)
	for _, s := range fleet.EightServices() {
		studied[s.Method] = true
	}
	roots := entryMethods(cat)

	var dsSinks []*datasetSink
	if cfg.RetainSpans {
		dsSinks = make([]*datasetSink, cfg.Shards)
	}
	sinks := make([]SpanSink, cfg.Shards)
	profs := make([]*gwp.Profiler, cfg.Shards)
	for shard := 0; shard < cfg.Shards; shard++ {
		var parts teeSink
		if factory != nil {
			if s := factory(shard); s != nil {
				parts = append(parts, s)
			}
		}
		if cfg.RetainSpans {
			dsSinks[shard] = newDatasetSink()
			parts = append(parts, dsSinks[shard])
		}
		// An empty tee discards the stream (a Run with neither sinks nor
		// retention still exercises the generator and fills the profile).
		sinks[shard] = parts
		if len(parts) == 1 {
			sinks[shard] = parts[0]
		}
		profs[shard] = gwp.New()
	}

	var wg sync.WaitGroup
	for shard := 0; shard < cfg.Shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			runShard(ctx, cat, topo, profs[shard], cfg, studied, roots, shard, sinks[shard])
		}(shard)
	}
	wg.Wait()

	// Merge per-shard profilers in shard order for deterministic
	// floating-point accumulation.
	prof := gwp.New()
	for _, p := range profs {
		prof.Merge(p)
	}
	snap := prof.Snapshot()

	if !cfg.RetainSpans {
		return snap, nil
	}
	ds := &Dataset{
		Cat:                 cat,
		Topo:                topo,
		MethodSpans:         make(map[string][]*trace.Span, len(cat.Methods)),
		DescendantsByMethod: make(map[string]*stats.Sample),
		AncestorsByMethod:   make(map[string]*stats.Sample),
		ExoByMethod:         make(map[string][]ExoObservation),
	}
	for _, d := range dsSinks {
		for name, spans := range d.methodSpans {
			ds.MethodSpans[name] = append(ds.MethodSpans[name], spans...)
		}
		ds.VolumeSpans = append(ds.VolumeSpans, d.volume...)
		ds.TreeSpans = append(ds.TreeSpans, d.treeSpans...)
		MergeSamples(ds.DescendantsByMethod, d.desc)
		MergeSamples(ds.AncestorsByMethod, d.anc)
		for name, obs := range d.exo {
			ds.ExoByMethod[name] = append(ds.ExoByMethod[name], obs...)
		}
		ds.GraphStats = append(ds.GraphStats, d.graphs...)
	}
	ds.Profile = snap
	return snap, ds
}

// MergeSamples appends each of src's samples to dst's sample of the same
// name, creating it when dst has none.
func MergeSamples(dst, src map[string]*stats.Sample) {
	for name, s := range src {
		d := dst[name]
		if d == nil {
			d = stats.NewSample(s.Len())
			dst[name] = d
		}
		for _, v := range s.Values() {
			d.Add(v)
		}
	}
}

// runShard produces one shard's slice of the generation stream: every
// method's stratified samples are split across shards, as are the volume
// roots and trees. Each span is handed to the sink the moment it exists.
// Cancellation is checked between samples, so a shard never tears down a
// half-generated call tree.
func runShard(ctx context.Context, cat *fleet.Catalog, topo *sim.Topology, prof *gwp.Profiler, cfg RunConfig, studied map[string]bool, roots []*fleet.Method, shard int, sink SpanSink) {
	done := ctx.Done()
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	gen := NewGeneratorShard(cat, topo, prof, cfg.Seed, shard)
	rng := stats.NewRNG(cfg.Seed).Child(fmt.Sprintf("dataset-%d", shard))
	share := func(total int) int {
		n := total / cfg.Shards
		if shard < total%cfg.Shards {
			n++
		}
		return n
	}

	// --- Stratified per-method samples. ---
	for _, m := range cat.Methods {
		total := cfg.MethodSamples
		if studied[m.Name] {
			total = cfg.StudiedSamples
		}
		n := share(total)
		for i := 0; i < n; i++ {
			if cancelled() {
				return
			}
			at := time.Duration(rng.Float64() * float64(24*time.Hour))
			obs := gen.Call(m, CallOptions{At: at, MaxDepth: cfg.MaxDepth, Budget: cfg.TreeBudget})
			sink.MethodSpan(obs.Span)
			sink.TreeShape(m.Name, obs.Descendants, obs.Ancestors)
			sink.GraphShape(obs.Graph)
			if studied[m.Name] {
				sink.ExoSample(m.Name, obs.Span, obs.Exo)
			}
		}
	}

	// --- Volume run: the fleet call mix. ---
	nVolume := share(cfg.VolumeRoots)
	for i := 0; i < nVolume; i++ {
		if cancelled() {
			return
		}
		m := cat.SampleMethod(rng)
		at := time.Duration(rng.Float64() * float64(24*time.Hour))
		// Volume samples skip deep recursion: the popularity model is
		// already the marginal distribution over all calls, so each
		// sample stands for itself, with a shallow child layer for the
		// parent-includes-children latency semantics.
		obs := gen.Call(m, CallOptions{At: at, MaxDepth: 2, Budget: 64})
		sink.VolumeSpan(obs.Span)
		// Hedging-induced cancellations at the fleet mix level.
		if rng.Bool(m.HedgeProb * cancelPerHedge) {
			sink.VolumeSpan(gen.HedgedCancellation(m, at))
		}
	}

	// --- Tree run: materialized call trees rooted at entry points. ---
	for i := 0; i < share(cfg.Trees); i++ {
		if cancelled() {
			return
		}
		m := roots[rng.Intn(len(roots))]
		at := time.Duration(rng.Float64() * float64(24*time.Hour))
		obs := gen.Call(m, CallOptions{
			At: at, MaxDepth: cfg.MaxDepth, Budget: cfg.TreeBudget,
			Materialize: true,
			Observe: func(o CallObservation) {
				sink.TreeSpan(o.Span)
				sink.TreeShape(o.Span.Method, o.Descendants, o.Ancestors)
			},
		})
		sink.GraphShape(obs.Graph)
	}
}

// entryMethods returns the call-tree roots: the highest-layer methods,
// popularity-weighted sampling pool.
func entryMethods(cat *fleet.Catalog) []*fleet.Method {
	var out []*fleet.Method
	for _, m := range cat.Methods {
		if m.Layer >= 2 {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		out = cat.Methods
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Popularity > out[j].Popularity })
	if len(out) > 200 {
		out = out[:200]
	}
	return out
}

// AllSpans returns the union of every span set (for fleet-wide error and
// byte accounting that wants maximum sample volume). The returned slice
// is freshly allocated on every call — it copies nothing but the span
// pointers, and callers may reorder or truncate it freely — so streaming
// consumers that only need to visit each span once should prefer feeding
// a SpanSink via Run instead of paying for the union.
func (ds *Dataset) AllSpans() []*trace.Span {
	out := make([]*trace.Span, 0,
		len(ds.VolumeSpans)+len(ds.TreeSpans)+len(ds.MethodSpans)*8)
	out = append(out, ds.VolumeSpans...)
	out = append(out, ds.TreeSpans...)
	for _, spans := range ds.MethodSpans {
		out = append(out, spans...)
	}
	return out
}
