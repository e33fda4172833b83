// Command rpccluster runs the real stubby stack as a multi-process fleet:
// N server processes and M client processes over real TCP, driven by the
// synthetic method catalog with time-compressed diurnal load, comparing
// load-balancing policies on live traffic. It renders the paper's
// Fig. 13–15 per-policy load-imbalance table plus calls/s and p50/p99.
//
// The parent re-executes itself for each child role (the CLUSTERCTL_CONFIG
// environment variable carries it); see internal/cluster and DESIGN.md §13
// for the protocol.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rpcscale/internal/cluster"
)

func main() {
	// Child dispatch must run before flag parsing: children are
	// configured purely by environment and receive no flags.
	if cluster.IsChild() {
		os.Exit(cluster.RunChild())
	}

	var (
		servers      = flag.Int("servers", 4, "server processes")
		clients      = flag.Int("clients", 2, "client processes per policy phase")
		duration     = flag.Duration("duration", 10*time.Second, "wall time per policy phase")
		timeScale    = flag.Float64("time-scale", 600, "diurnal compression: 600x runs a 24h cycle in 144s")
		baseRate     = flag.Float64("base-rate", 2000, "per-client mean calls/s at the diurnal midpoint")
		appTimeScale = flag.Float64("apptime-scale", 0.001, "server handler-time compression (0 = pure echo)")
		policies     = flag.String("policies", strings.Join(cluster.DefaultPolicies, ","), "comma-separated policies to compare")
		methods      = flag.Int("methods", 0, "catalog size (0 = fleet default)")
		seed         = flag.Uint64("seed", 1, "root seed for catalog and load generation")
		pool         = flag.Int("pool", 2, "channels per client-server pool")
		workers      = flag.Int("workers", 0, "server worker goroutines (0 = stubby default)")
		jsonOut      = flag.String("json", "", "also write the report as JSON to this file (- for stdout)")
	)
	flag.Parse()

	// SIGTERM/SIGINT drain the whole fleet: cancelling ctx makes Run kill
	// every child, and children themselves treat stdin EOF as a drain
	// signal if the parent dies uncleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := cluster.Config{
		Servers:      *servers,
		Clients:      *clients,
		Duration:     *duration,
		TimeScale:    *timeScale,
		BaseRate:     *baseRate,
		AppTimeScale: *appTimeScale,
		Methods:      *methods,
		Seed:         *seed,
		PoolSize:     *pool,
		Workers:      *workers,
	}
	if *policies != "" {
		cfg.Policies = strings.Split(*policies, ",")
	}

	rep, err := cluster.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpccluster:", err)
		os.Exit(1)
	}

	if *jsonOut != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpccluster:", err)
			os.Exit(1)
		}
		if *jsonOut == "-" {
			fmt.Println(string(raw))
		} else if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rpccluster:", err)
			os.Exit(1)
		}
	}
}
