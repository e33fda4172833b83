// Quickstart: the smallest complete use of the RPC stack — start a
// server, register a handler, make a traced call, and print the measured
// nine-component latency breakdown (the paper's Fig. 9 anatomy).
//
// The telemetry plane is the five-line version of the paper's whole
// observability story: one telemetry.New call plus one Plane.Apply over
// the endpoints' stubby.Options gives Monarch time series, Dapper spans,
// and GWP cycle attribution for every call.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"rpcscale/internal/gwp"
	"rpcscale/internal/stubby"
	"rpcscale/internal/telemetry"
	"rpcscale/internal/trace"
)

func main() {
	// The plane observes every call of every endpoint it is plugged into.
	plane := telemetry.New()
	opts := plane.Apply(stubby.Options{ClusterName: "quickstart"})

	// Server side: register a handler and serve on loopback.
	srv := stubby.NewServer(opts)
	srv.Register("greeter.Greeter/Hello", func(ctx context.Context, payload []byte) ([]byte, error) {
		time.Sleep(2 * time.Millisecond) // pretend to work
		return []byte("hello, " + string(payload)), nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// Client side: dial and call.
	ch, err := stubby.Dial(l.Addr().String(), "quickstart", opts)
	if err != nil {
		log.Fatal(err)
	}
	defer ch.Close()

	resp, err := ch.Call(context.Background(), "greeter.Greeter/Hello", []byte("world"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("response: %s\n\n", resp)

	// Dapper's view: the trace shows where the time went.
	for _, span := range plane.Collector().Spans() {
		fmt.Printf("call %s took %v (tax %.1f%%)\n", span.Method,
			span.Latency().Round(time.Microsecond), span.Breakdown.TaxRatio()*100)
		for c := 0; c < trace.NumComponents; c++ {
			fmt.Printf("  %-30s %v\n", trace.Component(c).Label(),
				span.Breakdown[c].Round(time.Nanosecond))
		}
	}

	// Monarch's view: the same call as a windowed latency series.
	db := plane.Monarch()
	for _, s := range db.Query(telemetry.MetricLatency, nil, time.Now().Add(-time.Hour), time.Now()) {
		if d := s.Last().Dist; d != nil {
			fmt.Printf("\nmonarch %s{method=%s}: %d calls, P50 %v\n",
				s.Metric, s.Labels["method"], d.Count(),
				time.Duration(int64(d.Quantile(0.5))).Round(time.Microsecond))
		}
	}

	// GWP's view: where the cycles went, by taxonomy category.
	snap := plane.Profiler().Snapshot()
	fmt.Println()
	for cat := gwp.Category(0); int(cat) < gwp.NumCategories; cat++ {
		fmt.Printf("gwp %-14s %5.1f%%\n", cat, snap.CategoryShare(cat)*100)
	}
}
