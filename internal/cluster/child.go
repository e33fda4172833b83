package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// envConfig is the child protocol's one environment key: the parent
// re-executes its own binary with the child's ChildConfig in it as JSON,
// the encoding the RESULT line uses too. Flags never reach the child, so
// any binary that calls RunChild early in main when IsChild holds
// (cmd/rpccluster, the test binary) can host a role.
const envConfig = "CLUSTERCTL_CONFIG"

// ChildConfig is a child role's full configuration, the JSON value of
// CLUSTERCTL_CONFIG.
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
func IsChild() bool { return os.Getenv(envConfig) != "" }

// spawnChild starts bin as the child cfg describes (Spawn).
func spawnChild(name, bin string, cfg ChildConfig) (*Proc, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding %s config: %w", name, err)
	}
	return Spawn(name, bin, nil, []string{envConfig + "=" + string(b)})
}

// childConfigFromEnv decodes CLUSTERCTL_CONFIG.
func childConfigFromEnv() (ChildConfig, error) {
	var cfg ChildConfig
	if err := json.Unmarshal([]byte(os.Getenv(envConfig)), &cfg); err != nil {
		return cfg, fmt.Errorf("cluster: %s: %w", envConfig, err)
	}
	return cfg, nil
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
