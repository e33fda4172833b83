package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/loadbalance"
	"rpcscale/internal/stats"
	"rpcscale/internal/stubby"
	"rpcscale/internal/telemetry"
)

// ClientResult is the client child's RESULT payload: issue/error counts,
// per-backend pick counts, and the full telemetry snapshot the parent
// merges across processes.
type ClientResult struct {
	Policy      string             `json:"policy"`
	ClientID    int                `json:"client_id"`
	Issued      uint64             `json:"issued"`
	Errors      uint64             `json:"errors"`
	Picks       map[string]uint64  `json:"picks"`
	WallSeconds float64            `json:"wall_seconds"`
	Snapshot    telemetry.Snapshot `json:"snapshot"`
}

// maxOutstanding bounds a client's concurrent in-flight calls so an
// overloaded backend back-pressures the generator instead of exhausting
// goroutines — the open loop stays open up to this cap.
const maxOutstanding = 512

// clientSpanCapacity bounds the spans a client child's plane retains. The
// child ships only plane.Snapshot, whose counters and Monarch series see
// every call whatever the span store keeps; an unbounded store would grow
// with the run and be read by no one.
const clientSpanCapacity = 1024

// newClientPlane returns the telemetry plane a client child observes its
// calls with.
func newClientPlane() *telemetry.Plane {
	return telemetry.New(telemetry.WithSpanCapacity(clientSpanCapacity))
}

// clientPayloadCap keeps harness request payloads under the bulk-lane
// threshold: the policy comparison is about balancing, not bulk transfer.
const clientPayloadCap = 8 << 10

// RunClient runs the client child role: dial a pool to every server,
// drive the open-loop diurnal schedule from the method catalog, balance
// picks with the configured policy, and emit the RESULT snapshot when the
// duration elapses (or SIGTERM/stdin-EOF asks for an early drain).
func RunClient(cfg ChildConfig) error {
	if len(cfg.Servers) == 0 {
		return fmt.Errorf("cluster: client needs at least one server address")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.BaseRate <= 0 {
		cfg.BaseRate = 2000
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	if cfg.Policy == "" {
		cfg.Policy = "round-robin"
	}

	policy, err := loadbalance.ByName(cfg.Policy, cfg.ClientID)
	if err != nil {
		return err
	}

	cat := fleet.New(fleet.Config{Methods: cfg.Methods, Clusters: 4, Seed: cfg.Seed})
	plane := newClientPlane()
	opts := plane.Apply(stubby.Options{
		ClusterName: fmt.Sprintf("client-%d", cfg.ClientID),
	})

	pools := make([]*stubby.Pool, 0, len(cfg.Servers))
	endpoints := make([]loadbalance.Endpoint, 0, len(cfg.Servers))
	poolIndex := make(map[*stubby.Pool]int, len(cfg.Servers))
	for i, addr := range cfg.Servers {
		p, err := stubby.NewPool(addr, fmt.Sprintf("server-%d", i), cfg.PoolSize, opts)
		if err != nil {
			for _, q := range pools {
				q.Close()
			}
			return fmt.Errorf("cluster: dialing %s: %w", addr, err)
		}
		pools = append(pools, p)
		endpoints = append(endpoints, p)
		poolIndex[p] = i
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()

	driver := fleet.NewDriver(cat, fleet.DriveConfig{
		BaseRate:   cfg.BaseRate,
		TimeScale:  cfg.TimeScale,
		Amplitude:  0.25,
		PhaseHours: 6, // peak mid-cycle, like the paper's weekday trace
		MaxPayload: clientPayloadCap,
		Seed:       cfg.Seed + uint64(cfg.ClientID)*0x9e37 + 1,
	})

	// Shared read-only payload source; each call slices its sampled size.
	payload := make([]byte, clientPayloadCap)
	fillRNG := stats.NewRNG(cfg.Seed).Child("payload")
	for i := range payload {
		payload[i] = byte(fillRNG.Uint64())
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	waitDrain := armDrainSignal()
	go func() {
		waitDrain()
		stopOnce.Do(func() { close(stop) })
	}()

	pickRNG := stats.NewRNG(cfg.Seed).Child(fmt.Sprintf("pick%d", cfg.ClientID))
	picks := make([]atomic.Uint64, len(pools))
	var issued, errs atomic.Uint64
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOutstanding)

	start := time.Now()
	end := start.Add(cfg.Duration)
	next := start

dispatch:
	for {
		m, reqBytes, gap := driver.Next()
		next = next.Add(gap)
		if next.After(end) {
			break
		}
		if d := time.Until(next); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				break dispatch
			}
		} else {
			select {
			case <-stop:
				break dispatch
			default:
			}
		}

		pool := policy.Pick(pickRNG, endpoints).(*stubby.Pool)
		picks[poolIndex[pool]].Add(1)
		issued.Add(1)

		select {
		case sem <- struct{}{}:
		case <-stop:
			issued.Add(^uint64(0)) // never dispatched
			picks[poolIndex[pool]].Add(^uint64(0))
			break dispatch
		}
		wg.Add(1)
		go func(method string, n int) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := pool.Call(ctx, method, payload[:n]); err != nil {
				errs.Add(1)
			}
		}(m.Name, reqBytes)
	}
	wg.Wait()

	res := ClientResult{
		Policy:      cfg.Policy,
		ClientID:    cfg.ClientID,
		Issued:      issued.Load(),
		Errors:      errs.Load(),
		Picks:       make(map[string]uint64, len(pools)),
		WallSeconds: time.Since(start).Seconds(),
		Snapshot:    plane.Snapshot(),
	}
	for i, addr := range cfg.Servers {
		res.Picks[addr] = picks[i].Load()
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", resultPrefix, out)
	return nil
}
