package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rpcscale/internal/stats"
	"rpcscale/internal/stubby"
	"rpcscale/internal/telemetry"
)

// Config is the parent harness configuration (cmd/rpccluster's flags map
// onto it one-to-one).
type Config struct {
	Servers  int           // server processes to spawn
	Clients  int           // client processes per policy phase
	Duration time.Duration // wall time per policy phase

	// TimeScale compresses the diurnal cycle: 600 runs a 24h cycle in
	// 144s of wall time.
	TimeScale float64
	// BaseRate is each client's mean issue rate in calls/s at the diurnal
	// midpoint.
	BaseRate float64
	// AppTimeScale compresses catalog application times on the servers;
	// 0.001 keeps a smoke run fast while preserving relative method cost.
	AppTimeScale float64

	// Policies to compare, one phase each. Empty means the paper's
	// Fig. 13–15 set.
	Policies []string

	Methods  int
	Seed     uint64
	PoolSize int // channels per client-server pool
	Workers  int // server worker goroutines (0 = stubby default)

	// Bin is the binary to re-execute for children; empty means
	// os.Executable().
	Bin string
	// Out receives the rendered report table; nil means os.Stdout.
	Out io.Writer
}

// DefaultPolicies is the Fig. 13–15 comparison set.
var DefaultPolicies = []string{"round-robin", "random", "power-of-two", "least-loaded", "subset"}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Servers <= 0 {
		cfg.Servers = 4
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 600
	}
	if cfg.BaseRate <= 0 {
		cfg.BaseRate = 2000
	}
	if cfg.AppTimeScale < 0 {
		cfg.AppTimeScale = 0
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = append([]string(nil), DefaultPolicies...)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	if cfg.Out == nil {
		cfg.Out = os.Stdout
	}
	return cfg
}

// PolicyReport is one policy phase's merged result.
type PolicyReport struct {
	Policy      string  `json:"policy"`
	Calls       uint64  `json:"calls"`
	Errors      uint64  `json:"errors"`
	CallsPerSec float64 `json:"calls_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`

	// Imbalance is max/mean of per-server served-call deltas over the
	// phase — the metric behind the paper's Fig. 13–15 comparison
	// (1.0 = perfectly balanced).
	Imbalance float64 `json:"imbalance"`
	// Served maps server address to its served-call delta for the phase.
	Served map[string]uint64 `json:"served"`
}

// Report is the harness's full output: one entry per policy plus the
// aggregate throughput and latency across them.
type Report struct {
	Servers   int            `json:"servers"`
	Clients   int            `json:"clients"`
	TimeScale float64        `json:"time_scale"`
	Duration  string         `json:"duration"`
	Policies  []PolicyReport `json:"policies"`

	// CallsPerSec and P99Ms aggregate across all phases; CI's
	// cluster-smoke job holds CallsPerSec above its throughput floor.
	CallsPerSec float64 `json:"calls_per_sec"`
	P99Ms       float64 `json:"p99_ms"`
}

// Run executes the full harness: spawn the server fleet once, then for
// each policy run a phase of client processes, merging their telemetry and
// sampling per-server served counts around the phase to compute imbalance.
// Cancelling ctx kills all children and aborts.
func Run(ctx context.Context, c Config) (*Report, error) {
	cfg := c.withDefaults()
	bin := cfg.Bin
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("cluster: resolving own binary: %w", err)
		}
		bin = exe
	}

	// Spawn the server fleet.
	servers := make([]*Proc, 0, cfg.Servers)
	defer func() {
		for _, p := range servers {
			p.Kill()
		}
	}()
	for i := 0; i < cfg.Servers; i++ {
		p, err := spawnChild(fmt.Sprintf("server-%d", i), bin, ChildConfig{
			Role:         "server",
			Seed:         cfg.Seed,
			Methods:      cfg.Methods,
			Workers:      cfg.Workers,
			AppTimeScale: cfg.AppTimeScale,
			ClientID:     i,
		})
		if err != nil {
			return nil, err
		}
		servers = append(servers, p)
	}
	addrs := make([]string, len(servers))
	for i, p := range servers {
		addr, err := p.WaitReady(10 * time.Second)
		if err != nil {
			return nil, err
		}
		addrs[i] = addr
	}

	// Control pools let the parent sample per-server served counts
	// around each phase without touching the data path's accounting.
	control := make([]*stubby.Pool, len(addrs))
	for i, addr := range addrs {
		p, err := stubby.NewPool(addr, "control", 1, stubby.Options{ClusterName: "parent"})
		if err != nil {
			return nil, fmt.Errorf("cluster: control dial %s: %w", addr, err)
		}
		control[i] = p
	}
	defer func() {
		for _, p := range control {
			p.Close()
		}
	}()

	// ctx cancellation tears the fleet down even mid-phase.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			for _, p := range servers {
				p.Kill()
			}
		case <-watchDone:
		}
	}()

	rep := &Report{
		Servers:   cfg.Servers,
		Clients:   cfg.Clients,
		TimeScale: cfg.TimeScale,
		Duration:  cfg.Duration.String(),
	}
	allHist := stats.NewLatencyHist()
	var totalCalls uint64
	var totalWall float64

	for _, policy := range cfg.Policies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pr, err := runPhase(ctx, cfg, bin, policy, addrs, control)
		if err != nil {
			return nil, fmt.Errorf("cluster: policy %s: %w", policy, err)
		}
		rep.Policies = append(rep.Policies, pr.report)
		allHist.Merge(pr.hist)
		totalCalls += pr.report.Calls
		totalWall += pr.wall // phases run sequentially
	}

	// Drain the fleet and surface any non-zero exit.
	fleet := servers
	servers = nil // disarm the Kill defer
	if err := StopAll(fleet, 5*time.Second); err != nil {
		return nil, fmt.Errorf("cluster: server drain: %w", err)
	}
	for _, p := range fleet {
		if code := p.ExitCode(); code != 0 {
			return nil, fmt.Errorf("cluster: %s exited with code %d", p.Name, code)
		}
	}

	if totalWall > 0 {
		rep.CallsPerSec = float64(totalCalls) / totalWall
	}
	rep.P99Ms = allHist.Percentile(99) / float64(time.Millisecond)

	RenderReport(cfg.Out, rep)
	return rep, nil
}

// phaseResult carries one phase's report plus the raw pieces Run
// aggregates across phases.
type phaseResult struct {
	report PolicyReport
	hist   *stats.Hist
	wall   float64
}

// runPhase runs one policy phase: sample served counts, run the client
// wave to completion, sample again, merge the clients' snapshots.
func runPhase(ctx context.Context, cfg Config, bin, policy string, addrs []string, control []*stubby.Pool) (*phaseResult, error) {
	before, err := sampleServed(ctx, control)
	if err != nil {
		return nil, err
	}

	clients := make([]*Proc, 0, cfg.Clients)
	defer func() {
		for _, p := range clients {
			p.Kill()
		}
	}()
	for j := 0; j < cfg.Clients; j++ {
		p, err := spawnChild(fmt.Sprintf("client-%s-%d", policy, j), bin, ChildConfig{
			Role:      "client",
			Seed:      cfg.Seed,
			Methods:   cfg.Methods,
			ClientID:  j,
			Servers:   addrs,
			Policy:    policy,
			Duration:  cfg.Duration,
			TimeScale: cfg.TimeScale,
			BaseRate:  cfg.BaseRate,
			PoolSize:  cfg.PoolSize,
		})
		if err != nil {
			return nil, err
		}
		clients = append(clients, p)
	}

	resultWait := cfg.Duration + 30*time.Second
	results := make([]ClientResult, 0, len(clients))
	for _, p := range clients {
		raw, err := p.Result(resultWait)
		if err != nil {
			return nil, err
		}
		var cr ClientResult
		if err := json.Unmarshal([]byte(raw), &cr); err != nil {
			return nil, fmt.Errorf("%s result: %w", p.Name, err)
		}
		results = append(results, cr)
	}
	wave := clients
	clients = nil // disarm the Kill defer
	if err := StopAll(wave, 5*time.Second); err != nil {
		return nil, err
	}
	for _, p := range wave {
		if code := p.ExitCode(); code != 0 {
			return nil, fmt.Errorf("%s exited with code %d", p.Name, code)
		}
	}

	after, err := sampleServed(ctx, control)
	if err != nil {
		return nil, err
	}

	pr := PolicyReport{Policy: policy, Served: make(map[string]uint64, len(addrs))}
	snaps := make([]telemetry.Snapshot, 0, len(results))
	var wall float64
	for _, cr := range results {
		pr.Calls += cr.Issued
		pr.Errors += cr.Errors
		snaps = append(snaps, cr.Snapshot)
		if cr.WallSeconds > wall {
			wall = cr.WallSeconds
		}
	}
	deltas := make([]float64, len(addrs))
	for i, addr := range addrs {
		d := after[i] - before[i]
		pr.Served[addr] = d
		deltas[i] = float64(d)
	}
	pr.Imbalance = maxOverMean(deltas)

	merged := telemetry.MergeSnapshots(snaps)
	hist := merged.LatencyHist()
	pr.P50Ms = hist.Percentile(50) / float64(time.Millisecond)
	pr.P99Ms = hist.Percentile(99) / float64(time.Millisecond)
	if wall > 0 {
		pr.CallsPerSec = float64(pr.Calls) / wall
	}
	return &phaseResult{report: pr, hist: hist, wall: wall}, nil
}

// sampleServed reads every server's served-call counter via the control
// RPC.
func sampleServed(ctx context.Context, control []*stubby.Pool) ([]uint64, error) {
	out := make([]uint64, len(control))
	for i, pool := range control {
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		raw, err := pool.Call(cctx, ControlMethod, nil)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("control stats from %s: %w", pool.Addr(), err)
		}
		var st ServerStats
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, fmt.Errorf("control stats from %s: %w", pool.Addr(), err)
		}
		out[i] = st.Served
	}
	return out, nil
}

// maxOverMean is the load-imbalance metric: peak server load over mean
// server load, 1.0 when perfectly balanced, 0 when nothing was served.
func maxOverMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, max float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(xs)))
}

// RenderReport writes the per-policy comparison table (the live-traffic
// analogue of the simulator's Fig. 13–15 output) plus the aggregate line.
func RenderReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "cluster: %d servers, %d clients/phase, %s per phase, time-scale %gx\n\n",
		rep.Servers, rep.Clients, rep.Duration, rep.TimeScale)
	fmt.Fprintf(w, "%-16s %10s %8s %9s %9s %10s\n",
		"policy", "calls/s", "errors", "p50 ms", "p99 ms", "imbalance")
	for _, pr := range rep.Policies {
		fmt.Fprintf(w, "%-16s %10.0f %8d %9.2f %9.2f %10.3f\n",
			pr.Policy, pr.CallsPerSec, pr.Errors, pr.P50Ms, pr.P99Ms, pr.Imbalance)
	}
	fmt.Fprintf(w, "\naggregate: %.0f calls/s, p99 %.2f ms\n", rep.CallsPerSec, rep.P99Ms)

	// Per-server served counts, most loaded first, for the worst phase.
	worst := -1
	for i, pr := range rep.Policies {
		if worst < 0 || pr.Imbalance > rep.Policies[worst].Imbalance {
			worst = i
		}
	}
	if worst >= 0 {
		pr := rep.Policies[worst]
		type kv struct {
			addr string
			n    uint64
		}
		rows := make([]kv, 0, len(pr.Served))
		for a, n := range pr.Served {
			rows = append(rows, kv{a, n})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
		fmt.Fprintf(w, "\nworst-imbalance phase (%s) per-server served:\n", pr.Policy)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-22s %d\n", r.addr, r.n)
		}
	}
}
