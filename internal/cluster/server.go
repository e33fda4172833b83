package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/stats"
	"rpcscale/internal/stubby"
)

// ControlMethod is the harness's control RPC: it returns a ServerStats
// JSON payload, letting the parent sample per-server served counts around
// each policy phase without disturbing the data path.
const ControlMethod = "cluster.Control/Stats"

// ServerStats is the control RPC's response payload.
type ServerStats struct {
	// Served counts data-path calls completed (control calls excluded).
	Served uint64 `json:"served"`
}

// RunServer runs the server child role: build the method catalog, register
// an echo handler for every method plus the control RPC, bind a loopback
// listener, announce READY, and serve until SIGTERM/SIGINT or stdin EOF —
// then drain in-flight work and exit. The parent reads served counts
// through the control RPC, so a server prints no RESULT.
func RunServer(cfg ChildConfig) error {
	cat := fleet.New(fleet.Config{Methods: cfg.Methods, Clusters: 4, Seed: cfg.Seed})

	srv := stubby.NewServer(stubby.Options{Workers: cfg.Workers})
	var served atomic.Uint64

	// appRNG drives per-call handler-time sampling when AppTimeScale > 0:
	// occupying a worker for the method's (scaled) application time is what
	// makes backend load real enough for load-aware policies to act on.
	var appMu sync.Mutex
	appRNG := stats.NewRNG(cfg.Seed + uint64(cfg.ClientID)*0x9e3779b9).Child("apptime")

	for _, m := range cat.Methods {
		m := m
		srv.Register(m.Name, func(ctx context.Context, payload []byte) ([]byte, error) {
			if cfg.AppTimeScale > 0 {
				appMu.Lock()
				d := time.Duration(float64(m.SampleAppTime(appRNG)) * cfg.AppTimeScale)
				appMu.Unlock()
				if d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
			}
			served.Add(1)
			return payload, nil
		})
	}
	srv.Register(ControlMethod, func(ctx context.Context, payload []byte) ([]byte, error) {
		return json.Marshal(ServerStats{Served: served.Load()})
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cluster: server listen: %w", err)
	}
	go srv.Serve(l)

	wait := armDrainSignal()
	fmt.Printf("%saddr=%s\n", readyPrefix, l.Addr())

	wait()

	// Drain: stop accepting, let in-flight handlers finish.
	srv.Close()
	return nil
}

// armDrainSignal installs the child's two shutdown paths — SIGTERM/SIGINT
// and stdin EOF (the parent died or closed the pipe) — and returns a
// function that blocks until one fires. Arming is split from waiting so a
// child can subscribe before announcing READY: otherwise a parent that
// reacts to READY with an immediate Stop can deliver SIGTERM while the
// default handler is still in place, killing the child instead of
// draining it.
func armDrainSignal() (wait func()) {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)

	eof := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(eof)
	}()

	// The subscription stays armed for the life of the process — never
	// signal.Stop: the parent's Stop closes stdin and sends SIGTERM
	// together, and dropping the last registration restores the default
	// disposition, so a SIGTERM landing just after the EOF-triggered
	// return would kill the draining child instead of being absorbed.
	return func() {
		select {
		case <-sigCh:
		case <-eof:
		}
	}
}
