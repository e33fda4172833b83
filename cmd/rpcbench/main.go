// Command rpcbench measures the real RPC stack on this machine: it starts
// a Stubby-style server on a loopback TCP socket, drives it with unary
// calls, and renders the study's figure-by-figure report from the live
// telemetry plane — the same Monarch / Dapper / GWP pipeline the paper
// mines, fed by real traffic instead of the simulator.
//
// Usage:
//
//	rpcbench [-n N] [-payload BYTES] [-conc N] [-compress] [-apptime D]
//	         [-sample N] [-errorrate F] [-full]
//	rpcbench -sweep [-conc N] [-streams N]
//	rpcbench -chaos [-seed N] [-budget] [-n N] [-conc N] [-payload BYTES]
//
// Sweep mode drives payload sizes from 128 B to 1 MiB through the unary
// envelope lane, the zero-copy bulk lane, and (with -streams > 0) credit-
// windowed streams, printing a throughput-vs-payload table in the style
// of the paper's size figures.
//
// Chaos mode replaces the throughput bench with a deterministic
// fault-injection scenario: a seeded fault schedule (rejects, drops,
// delays, corruption, plus a mid-run overload incident) drives the
// stack's retry and budget machinery, and the report shows the resulting
// error-code distribution and retry amplification per phase. The same
// seed reproduces the report byte for byte (with -budget, determinism
// additionally requires -conc 1, since a shared token bucket is
// order-sensitive).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/core"
	"rpcscale/internal/monarch"
	"rpcscale/internal/stats"
	"rpcscale/internal/stubby"
	"rpcscale/internal/telemetry"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

func main() {
	var (
		n         = flag.Int("n", 20000, "number of calls")
		payload   = flag.Int("payload", 1530, "request payload bytes (paper median)")
		conc      = flag.Int("conc", 8, "concurrent callers")
		compress  = flag.Bool("compress", false, "enable flate compression")
		appTime   = flag.Duration("apptime", 0, "simulated handler time (0 = echo only)")
		sample    = flag.Uint64("sample", 1, "trace 1-in-N calls (Monarch/GWP still see all)")
		errorRate = flag.Float64("errorrate", 0, "fraction of calls the handler fails")
		chaos     = flag.Bool("chaos", false, "run the deterministic fault-injection scenario instead")
		seed      = flag.Uint64("seed", 42, "fault-schedule / -errorrate injection seed")
		budget    = flag.Bool("budget", false, "chaos: cap retry amplification with a retry budget")
		sweep     = flag.Bool("sweep", false, "run the payload sweep (128 B … 1 MiB) across unary/bulk/stream lanes instead")
		streams   = flag.Int("streams", 4, "sweep: concurrent streams per payload size (0 disables the stream lane)")
	)
	flag.Parse()
	if *conc < 1 {
		fmt.Fprintln(os.Stderr, "rpcbench: -conc must be at least 1")
		os.Exit(2)
	}

	if *sweep {
		if err := runSweep(sweepConfig{Conc: *conc, Streams: *streams}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *chaos {
		res, err := runChaos(chaosConfig{
			Seed:    *seed,
			Calls:   *n,
			Conc:    *conc,
			Payload: *payload,
			Budget:  *budget,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(res.Report)
		fmt.Printf("\n  wall (not seed-deterministic): %v, %.0f calls/s\n",
			res.Elapsed.Round(time.Millisecond),
			float64(*n)/res.Elapsed.Seconds())
		return
	}

	// One plane observes both ends: spans, Monarch series, and GWP cycle
	// attribution for every call flow through it.
	plane := telemetry.New(telemetry.WithSampleEvery(*sample))
	opts := stubby.Options{ClusterName: "loopback", Workers: *conc}
	if *compress {
		opts.Compression = compressor.Flate
	}
	opts = plane.Apply(opts)

	srv := stubby.NewServer(opts)
	var rngMu sync.Mutex
	// Error injection draws from a rand seeded by -seed (never the global
	// source) so a fixed seed fails the same calls run after run.
	rng := rand.New(rand.NewPCG(*seed, 0))
	srv.Register("bench.Echo/Echo", func(ctx context.Context, p []byte) ([]byte, error) {
		if *errorRate > 0 {
			rngMu.Lock()
			fail := rng.Float64() < *errorRate
			rngMu.Unlock()
			if fail {
				return nil, errors.New("injected failure")
			}
		}
		if *appTime > 0 {
			time.Sleep(*appTime)
		}
		return p, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	go srv.Serve(l)
	defer srv.Close()

	ch, err := stubby.Dial(l.Addr().String(), "loopback", opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer ch.Close()

	req := make([]byte, *payload)
	for i := range req {
		req[i] = byte(i)
	}

	// Warm up connections and pools, then drop the warmup from the plane.
	for i := 0; i < 100; i++ {
		if _, err := ch.Call(context.Background(), "bench.Echo/Echo", req); err != nil && *errorRate == 0 {
			fmt.Fprintln(os.Stderr, "warmup:", err)
			os.Exit(1)
		}
	}
	plane.Reset()

	// Ctrl-C or SIGTERM (CI job cancellation) stops the drive loop and
	// lets in-flight calls drain; the report covers what ran.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range callsFor(w, *n, *conc) {
				if ctx.Err() != nil {
					return
				}
				if _, err := ch.Call(ctx, "bench.Echo/Echo", req); err != nil && *errorRate == 0 {
					fmt.Fprintln(os.Stderr, "call:", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	spans := plane.Collector().Spans()
	fmt.Printf("rpcbench: %d calls (%d traced), payload %dB, %d callers, compression=%v\n",
		plane.Calls(), len(spans), *payload, *conc, *compress)
	fmt.Printf("  throughput: %.0f RPC/s   wall: %v   errors: %d\n\n",
		float64(plane.Calls())/elapsed.Seconds(), elapsed.Round(time.Millisecond), plane.Errors())

	componentTable(spans)

	cs := plane.CompressorStats()
	if *compress {
		fmt.Printf("\n  compression: %d calls, ratio %.2f\n", cs.CompressCalls.Load(), cs.Ratio())
	}
	es := plane.EncryptionStats()
	fmt.Printf("  encryption: %d seals, %d bytes\n\n", es.Seals.Load(), es.BytesEncrypted.Load())

	// Per-method Monarch series, straight from the plane's DB: the view a
	// service owner would dashboard.
	monarchSummary(plane)

	// The study report over the live traffic: the traced spans replay like
	// a span dump, and Fig. 20 reads the plane's profile, which counted
	// unsampled calls too. Sections that need the simulator (diurnal,
	// cross-cluster, load-balance) are skipped because no Generator is
	// supplied; span-derived figures run on real traffic.
	var sinks core.ShardSinks
	workload.ReplaySpans(spans, sinks.New)
	fmt.Print(core.ReportFromSink(sinks.Merged(), plane.Profiler().Snapshot(), core.ReportOptions{DB: plane.Monarch()}))
}

// callsFor is how many of n calls caller w of conc drives: an even
// split whose first n%conc callers make one call more, so that exactly n
// calls run.
func callsFor(w, n, conc int) int {
	if w < n%conc {
		return n/conc + 1
	}
	return n / conc
}

// componentTable prints the measured nine-component breakdown (the
// live-hardware counterpart of the paper's Figs. 9/10 methodology).
func componentTable(spans []*trace.Span) {
	if len(spans) == 0 {
		return
	}
	comps := make([]*stats.Sample, trace.NumComponents)
	total := stats.NewSample(len(spans))
	var taxSum, totalSum float64
	for c := range comps {
		comps[c] = stats.NewSample(len(spans))
	}
	for _, s := range spans {
		for c := 0; c < trace.NumComponents; c++ {
			comps[c].Add(float64(s.Breakdown[c]))
		}
		total.Add(float64(s.Breakdown.Total()))
		taxSum += float64(s.Breakdown.Tax())
		totalSum += float64(s.Breakdown.Total())
	}
	fmt.Printf("  %-30s %10s %10s %10s\n", "component", "P50", "P95", "P99")
	order := make([]int, trace.NumComponents)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return comps[order[a]].Quantile(0.5) > comps[order[b]].Quantile(0.5)
	})
	for _, c := range order {
		fmt.Printf("  %-30s %10v %10v %10v\n", trace.Component(c).Label(),
			time.Duration(int64(comps[c].Quantile(0.5))).Round(time.Nanosecond),
			time.Duration(int64(comps[c].Quantile(0.95))).Round(time.Nanosecond),
			time.Duration(int64(comps[c].Quantile(0.99))).Round(time.Nanosecond))
	}
	fmt.Printf("  %-30s %10v %10v %10v\n", "TOTAL",
		time.Duration(int64(total.Quantile(0.5))).Round(time.Nanosecond),
		time.Duration(int64(total.Quantile(0.95))).Round(time.Nanosecond),
		time.Duration(int64(total.Quantile(0.99))).Round(time.Nanosecond))
	if totalSum > 0 {
		fmt.Printf("\n  measured RPC latency tax: %.1f%% of completion time\n", 100*taxSum/totalSum)
	}
}

// monarchSummary queries the plane's Monarch DB per method and prints
// window-aligned counts and latency percentiles.
func monarchSummary(plane *telemetry.Plane) {
	db := plane.Monarch()
	now := time.Now()
	from := now.Add(-24 * time.Hour)
	fmt.Printf("  Monarch series (window %v):\n", db.Window())
	fmt.Printf("  %-24s %10s %8s %12s %12s %12s\n",
		"method", "calls", "errors", "P50", "P99", "windows")
	counts := db.Query(telemetry.MetricRPCCount, nil, from, now)
	byMethod := map[string]float64{}
	windows := map[string]int{}
	for _, s := range counts {
		m := s.Labels["method"]
		for _, pt := range s.Points {
			byMethod[m] += pt.Value
		}
		if len(s.Points) > windows[m] {
			windows[m] = len(s.Points)
		}
	}
	errs := map[string]float64{}
	for _, s := range db.Query(telemetry.MetricRPCErrors, nil, from, now) {
		for _, pt := range s.Points {
			errs[s.Labels["method"]] += pt.Value
		}
	}
	methods := make([]string, 0, len(byMethod))
	for m := range byMethod {
		methods = append(methods, m)
	}
	sort.Slice(methods, func(a, b int) bool { return byMethod[methods[a]] > byMethod[methods[b]] })
	for _, m := range methods {
		lat := stats.NewLatencyHist()
		for _, s := range db.Query(telemetry.MetricLatency, monarch.Labels{"method": m}, from, now) {
			for _, pt := range s.Points {
				if pt.Dist != nil {
					lat.Merge(pt.Dist)
				}
			}
		}
		fmt.Printf("  %-24s %10.0f %8.0f %12v %12v %12d\n",
			m, byMethod[m], errs[m],
			time.Duration(int64(lat.Quantile(0.5))).Round(time.Microsecond),
			time.Duration(int64(lat.Quantile(0.99))).Round(time.Microsecond),
			windows[m])
	}
	fmt.Println()
}
