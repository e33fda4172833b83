// Keyvalue: an in-memory KV store served over the RPC stack — the
// latency-sensitive service class of the paper's Table 1 (row 8,
// "KV-Store ... Search value"). It demonstrates:
//
//   - message schemas built with the codec package (no codegen),
//   - hedged reads (the §4.4 tail-latency strategy whose cancellations
//     dominate the fleet's error mix),
//   - the latency cost of an occasionally slow replica, and how hedging
//     removes it from the client-visible tail.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"rpcscale/internal/codec"
	"rpcscale/internal/monarch"
	"rpcscale/internal/stubby"
	"rpcscale/internal/telemetry"
	"rpcscale/internal/trace"
)

// Wire schemas for the KV service.
var (
	getReq = codec.MustDescriptor("kv.GetRequest",
		codec.Field{Number: 1, Name: "key", Type: codec.TypeString},
	)
	getResp = codec.MustDescriptor("kv.GetResponse",
		codec.Field{Number: 1, Name: "value", Type: codec.TypeBytes},
		codec.Field{Number: 2, Name: "found", Type: codec.TypeBool},
	)
	setReq = codec.MustDescriptor("kv.SetRequest",
		codec.Field{Number: 1, Name: "key", Type: codec.TypeString},
		codec.Field{Number: 2, Name: "value", Type: codec.TypeBytes},
	)
)

// kvServer is the application: a mutex-protected map with an injected
// slow mode that models a replica hitting a GC pause or hot shard.
type kvServer struct {
	mu   sync.RWMutex
	data map[string][]byte

	slowEvery int // every Nth get stalls
	gets      int
}

func (kv *kvServer) get(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := codec.Unmarshal(getReq, payload)
	if err != nil {
		return nil, stubby.Errorf(trace.InvalidArgument, "bad request: %v", err)
	}
	kv.mu.Lock()
	kv.gets++
	stall := kv.slowEvery > 0 && kv.gets%kv.slowEvery == 0
	val, ok := kv.data[req.GetString(1)]
	kv.mu.Unlock()
	if stall {
		// A straggler: 20x the usual service time.
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done(): // hedging cancels us — stop burning cycles
			return nil, ctx.Err()
		}
	}
	resp := codec.NewMessage(getResp).Set(2, ok)
	if ok {
		resp.Set(1, val)
	}
	return codec.Marshal(resp)
}

func (kv *kvServer) set(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := codec.Unmarshal(setReq, payload)
	if err != nil {
		return nil, stubby.Errorf(trace.InvalidArgument, "bad request: %v", err)
	}
	kv.mu.Lock()
	kv.data[req.GetString(1)] = append([]byte(nil), req.GetBytes(2)...)
	kv.mu.Unlock()
	return nil, nil
}

func main() {
	// One telemetry plane observes both endpoints: spans, Monarch series,
	// and GWP attribution for every call, including hedged duplicates.
	plane := telemetry.New()
	opts := plane.Apply(stubby.Options{ClusterName: "kv-demo", Workers: 16})

	kv := &kvServer{data: make(map[string][]byte), slowEvery: 20}
	srv := stubby.NewServer(opts)
	srv.Register("kvstore/Get", kv.get)
	srv.Register("kvstore/Set", kv.set)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	ch, err := stubby.Dial(l.Addr().String(), "kv-demo", opts)
	if err != nil {
		log.Fatal(err)
	}
	defer ch.Close()

	ctx := context.Background()

	// Load some data.
	for i := 0; i < 100; i++ {
		msg := codec.NewMessage(setReq).
			Set(1, fmt.Sprintf("user:%03d", i)).
			Set(2, []byte(fmt.Sprintf("profile-%d", i)))
		buf, _ := codec.Marshal(msg)
		if _, err := ch.Call(ctx, "kvstore/Set", buf); err != nil {
			log.Fatal(err)
		}
	}

	// Read back with and without hedging; 1 in 20 reads stalls 20ms.
	readAll := func(hedge bool) []time.Duration {
		var lats []time.Duration
		for i := 0; i < 100; i++ {
			msg := codec.NewMessage(getReq).Set(1, fmt.Sprintf("user:%03d", i))
			buf, _ := codec.Marshal(msg)
			start := time.Now()
			var out []byte
			var err error
			if hedge {
				out, err = ch.CallHedged(ctx, "kvstore/Get", buf, 3*time.Millisecond)
			} else {
				out, err = ch.Call(ctx, "kvstore/Get", buf)
			}
			if err != nil {
				log.Fatal(err)
			}
			lats = append(lats, time.Since(start))
			resp, _ := codec.Unmarshal(getResp, out)
			if !resp.GetBool(2) {
				log.Fatalf("key %d missing", i)
			}
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		return lats
	}

	plain := readAll(false)
	hedged := readAll(true)
	pct := func(l []time.Duration, p int) time.Duration { return l[len(l)*p/100] }

	fmt.Println("KV-Store read latency (1 in 20 reads stalls 20ms):")
	fmt.Printf("  %-10s %12s %12s\n", "", "P50", "P99")
	fmt.Printf("  %-10s %12v %12v\n", "plain", pct(plain, 50).Round(time.Microsecond), pct(plain, 99).Round(time.Microsecond))
	fmt.Printf("  %-10s %12v %12v\n", "hedged", pct(hedged, 50).Round(time.Microsecond), pct(hedged, 99).Round(time.Microsecond))

	// The cost: hedging produced cancelled duplicates (§4.4).
	spans := plane.Collector().Spans()
	var cancelled int
	for _, s := range spans {
		if s.Err == trace.Cancelled || s.Err == trace.DeadlineExceeded {
			cancelled++
		}
	}
	fmt.Printf("\nhedging side effect: %d cancelled/abandoned legs out of %d spans — the paper's most common error type\n",
		cancelled, len(spans))

	// The same story from Monarch: error counts per code, per method.
	db := plane.Monarch()
	for _, s := range db.Query(telemetry.MetricRPCErrors, monarch.Labels{"method": "kvstore/Get"},
		time.Now().Add(-time.Hour), time.Now()) {
		var n float64
		for _, pt := range s.Points {
			n += pt.Value
		}
		fmt.Printf("monarch rpc/errors{method=kvstore/Get, code=%s}: %.0f\n", s.Labels["code"], n)
	}
}
