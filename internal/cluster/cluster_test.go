package cluster

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"rpcscale/internal/leakcheck"
)

// TestMain lets the supervisor re-execute this test binary as a cluster
// child — the standard helper-process pattern.
func TestMain(m *testing.M) {
	if IsChild() {
		os.Exit(RunChild())
	}
	os.Exit(m.Run())
}

func testBin(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// TestSupervisorPropagatesChildFailure spawns a child with a malformed
// config and checks the run fails with the child's exit code surfaced: a
// crashing child must fail the run.
func TestSupervisorPropagatesChildFailure(t *testing.T) {
	leakcheck.Check(t)
	p, err := Spawn("broken", testBin(t), nil, []string{
		envConfig + `={"Role":"client","Duration":"bogus"}`, // unparseable → child exits 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err == nil {
		t.Fatal("child with malformed config exited 0")
	}
	if code := p.ExitCode(); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if _, err := p.Result(time.Second); err == nil {
		t.Fatal("Result succeeded for a crashed child")
	} else if !strings.Contains(err.Error(), "exit status 2") {
		t.Fatalf("Result error %q does not surface the exit code", err)
	}
}

// TestSupervisorUnknownRole checks the role-dispatch failure path (exit 1).
func TestSupervisorUnknownRole(t *testing.T) {
	leakcheck.Check(t)
	p, err := Spawn("mystery", testBin(t), nil, []string{envConfig + `={"Role":"gateway"}`})
	if err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if code := p.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
}

// TestServerReadyAndDrain spawns one real server child, checks the READY
// handshake, and drains it via Stop (SIGTERM + stdin close), expecting a
// clean exit with a RESULT line.
func TestServerReadyAndDrain(t *testing.T) {
	leakcheck.Check(t)
	p, err := spawnChild("server-0", testBin(t), ChildConfig{Role: "server", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.WaitReady(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(addr, ":") {
		t.Fatalf("READY addr = %q, not host:port", addr)
	}
	if err := p.Stop(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res, err := p.Result(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res, "served") {
		t.Fatalf("server RESULT %q missing served count", res)
	}
}

// TestClusterEndToEnd runs the full harness small: 2 servers, 1 client,
// one policy, a second of traffic. It validates the whole protocol chain —
// spawn, READY, control RPC sampling, client RESULT merge, drain — and
// that the report carries real traffic.
func TestClusterEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("spawns processes and drives ~1s of traffic")
	}
	var buf bytes.Buffer
	rep, err := Run(context.Background(), Config{
		Servers:   2,
		Clients:   1,
		Duration:  time.Second,
		TimeScale: 600,
		BaseRate:  500,
		Policies:  []string{"round-robin"},
		Seed:      42,
		Bin:       testBin(t),
		Out:       &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Policies) != 1 {
		t.Fatalf("policies = %d, want 1", len(rep.Policies))
	}
	pr := rep.Policies[0]
	if pr.Calls == 0 {
		t.Fatal("no calls recorded")
	}
	if pr.Errors > pr.Calls/10 {
		t.Fatalf("errors = %d of %d calls", pr.Errors, pr.Calls)
	}
	var served uint64
	for _, n := range pr.Served {
		served += n
	}
	if served == 0 {
		t.Fatal("control RPC sampled zero served calls")
	}
	if pr.Imbalance < 1.0 {
		t.Fatalf("imbalance = %v, must be >= 1 when traffic flowed", pr.Imbalance)
	}
	if rep.CallsPerSec <= 0 {
		t.Fatalf("aggregate calls/s = %v", rep.CallsPerSec)
	}
	out := buf.String()
	if !strings.Contains(out, "round-robin") || !strings.Contains(out, "imbalance") {
		t.Fatalf("report table missing policy row:\n%s", out)
	}
}
