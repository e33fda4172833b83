// Chaos: the robustness layer end to end, configured through
// stubby.Options — a deterministic fault injector on the client, a retry
// policy with a budget capping amplification, a circuit breaker,
// server-side load shedding, and the telemetry plane counting every
// retry, suppression, breaker transition, and shed call.
//
// The injector is seeded: run the example twice and the injected fault
// pattern (and so the error mix) is identical. That is the point — a
// failure you can replay is a failure you can debug.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"rpcscale/internal/faultplane"
	"rpcscale/internal/stubby"
	"rpcscale/internal/telemetry"
)

func main() {
	plane := telemetry.New()

	// A seeded fault schedule: a 10% reject floor plus a burst of heavier
	// rejects over calls 200-400 (windows count call IDs, not wall time,
	// so the schedule replays exactly).
	inj := faultplane.New(faultplane.Config{
		Seed:  7,
		Rules: []faultplane.Rule{{RejectRate: 0.10}},
		Incidents: []faultplane.Incident{{
			Name: "burst", From: 200, To: 400,
			Rules: []faultplane.Rule{{RejectRate: 0.50}},
		}},
	})

	srv := stubby.NewServer(plane.Apply(stubby.Options{
		ClusterName:   "chaos-example",
		ShedThreshold: 512,
	}))
	srv.Register("demo.Store/Get", func(ctx context.Context, p []byte) ([]byte, error) {
		return p, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// The client channel carries the whole robustness kit: the injector
	// (client scope), automatic retries under a shared budget, and a
	// circuit breaker. The plane observes all of it.
	budget := stubby.NewRetryBudget(10, 0.1)
	retry := stubby.DefaultRetryPolicy()
	retry.Budget = budget
	ch, err := stubby.Dial(l.Addr().String(), "chaos-example", plane.Apply(stubby.Options{
		ClusterName: "chaos-example",
		Faults:      inj,
		Retry:       &retry,
		Breaker: &stubby.BreakerConfig{
			FailureThreshold: 25,
			Cooldown:         50 * time.Millisecond,
		},
	}))
	if err != nil {
		log.Fatal(err)
	}
	defer ch.Close()

	var ok, failed int
	for i := 0; i < 600; i++ {
		// The call ID keys the injector's decisions: same seed + same IDs
		// = same faults, every run.
		ctx, cancel := context.WithTimeout(
			stubby.ContextWithCallID(context.Background(), uint64(i)), time.Second)
		_, err := ch.Call(ctx, "demo.Store/Get", []byte("key"))
		cancel()
		if err != nil {
			failed++
		} else {
			ok++
		}
	}

	fmt.Printf("calls: %d ok, %d failed (seeded faults; rerun for the identical split)\n", ok, failed)
	fmt.Printf("retries: %d issued, %d suppressed by the budget (%.1f tokens left, cap %.2f)\n",
		plane.RetriesAttempted(), plane.RetriesSuppressed(), budget.Tokens(), budget.Cap())
	fmt.Printf("breaker: %d transitions, final state %v\n",
		plane.BreakerTransitions(), ch.Breaker().State("demo.Store/Get"))
	fmt.Printf("shed: %d calls\n", plane.ShedCalls())

	// The same numbers live in the plane's Monarch DB, as any dashboard
	// would read them.
	db := plane.Monarch()
	now := time.Now()
	var retries float64
	for _, s := range db.Query(telemetry.MetricRetries, nil, now.Add(-time.Hour), now.Add(time.Hour)) {
		for _, pt := range s.Points {
			retries += pt.Value
		}
	}
	fmt.Printf("monarch %s: %.0f\n", telemetry.MetricRetries, retries)
}
