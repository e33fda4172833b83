package cluster

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Environment keys of the child protocol. The parent re-executes its own
// binary with these set; flags never reach the child, so any binary that
// calls RunChildIfSpawned early in main (cmd/rpccluster, the test binary)
// can host a role.
const (
	envRole         = "CLUSTERCTL_ROLE"
	envSeed         = "CLUSTERCTL_SEED"
	envMethods      = "CLUSTERCTL_METHODS"
	envWorkers      = "CLUSTERCTL_WORKERS"
	envAppTimeScale = "CLUSTERCTL_APPTIME_SCALE"
	envServers      = "CLUSTERCTL_SERVERS"
	envPolicy       = "CLUSTERCTL_POLICY"
	envClientID     = "CLUSTERCTL_CLIENT_ID"
	envDuration     = "CLUSTERCTL_DURATION"
	envTimeScale    = "CLUSTERCTL_TIME_SCALE"
	envBaseRate     = "CLUSTERCTL_BASE_RATE"
	envPool         = "CLUSTERCTL_POOL"
)

// ChildConfig is a child role's full configuration, decoded from the
// CLUSTERCTL_* environment.
type ChildConfig struct {
	Role         string
	Seed         uint64
	Methods      int
	Workers      int
	AppTimeScale float64

	// ClientID is the child's index within its role — it decorrelates
	// per-process RNG streams for servers too, despite the name.
	ClientID int

	// Client-only.
	Servers   []string
	Policy    string
	Duration  time.Duration
	TimeScale float64
	BaseRate  float64
	PoolSize  int
}

// IsChild reports whether this process was spawned as a cluster child.
func IsChild() bool { return os.Getenv(envRole) != "" }

// childConfigFromEnv decodes the CLUSTERCTL_* environment.
func childConfigFromEnv() (ChildConfig, error) {
	cfg := ChildConfig{Role: os.Getenv(envRole)}
	var err error
	parseU64 := func(key string, dst *uint64) {
		if v := os.Getenv(key); v != "" && err == nil {
			*dst, err = strconv.ParseUint(v, 10, 64)
			if err != nil {
				err = fmt.Errorf("cluster: %s=%q: %w", key, v, err)
			}
		}
	}
	parseInt := func(key string, dst *int) {
		if v := os.Getenv(key); v != "" && err == nil {
			*dst, err = strconv.Atoi(v)
			if err != nil {
				err = fmt.Errorf("cluster: %s=%q: %w", key, v, err)
			}
		}
	}
	parseF64 := func(key string, dst *float64) {
		if v := os.Getenv(key); v != "" && err == nil {
			*dst, err = strconv.ParseFloat(v, 64)
			if err != nil {
				err = fmt.Errorf("cluster: %s=%q: %w", key, v, err)
			}
		}
	}
	parseU64(envSeed, &cfg.Seed)
	parseInt(envMethods, &cfg.Methods)
	parseInt(envWorkers, &cfg.Workers)
	parseF64(envAppTimeScale, &cfg.AppTimeScale)
	parseInt(envClientID, &cfg.ClientID)
	parseF64(envTimeScale, &cfg.TimeScale)
	parseF64(envBaseRate, &cfg.BaseRate)
	parseInt(envPool, &cfg.PoolSize)
	if v := os.Getenv(envServers); v != "" {
		cfg.Servers = strings.Split(v, ",")
	}
	cfg.Policy = os.Getenv(envPolicy)
	if v := os.Getenv(envDuration); v != "" && err == nil {
		cfg.Duration, err = time.ParseDuration(v)
		if err != nil {
			err = fmt.Errorf("cluster: %s=%q: %w", envDuration, v, err)
		}
	}
	return cfg, err
}

// RunChild dispatches the child role selected by the environment and
// returns the process exit code. Call it only when IsChild() is true.
func RunChild() int {
	cfg, err := childConfigFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	switch cfg.Role {
	case "server":
		err = RunServer(cfg)
	case "client":
		err = RunClient(cfg)
	default:
		err = fmt.Errorf("cluster: unknown role %q", cfg.Role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
