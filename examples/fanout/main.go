// Fanout: a partition/aggregate search application — the architecture the
// paper identifies behind the fleet's "wider than deep" call trees
// (§2.4). A frontend fans a query out to many shard servers in parallel,
// each shard optionally consults a storage leaf, and the trace collector
// reassembles the whole tree from propagated trace context.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"rpcscale/internal/stubby"
	"rpcscale/internal/trace"
)

const shards = 12

func main() {
	col := trace.New()
	opts := stubby.Options{Collector: col, Workers: 32}

	// Storage leaf: a slow lookup the shards depend on.
	leafSrv := stubby.NewServer(opts)
	leafSrv.Register("storage/Read", func(ctx context.Context, p []byte) ([]byte, error) {
		time.Sleep(500 * time.Microsecond)
		return []byte("doc(" + string(p) + ")"), nil
	})
	leafL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go leafSrv.Serve(leafL)
	defer leafSrv.Close()

	leafOpts := opts
	leafOpts.ClusterName = "shard-pool"
	leafCh, err := stubby.Dial(leafL.Addr().String(), "storage-pool", leafOpts)
	if err != nil {
		log.Fatal(err)
	}
	defer leafCh.Close()

	// Shard server: scores its partition, fetching the top hit's body
	// from storage. The incoming ctx carries trace context, so the
	// nested call becomes a child span automatically.
	shardSrv := stubby.NewServer(opts)
	shardSrv.Register("searchshard/Query", func(ctx context.Context, p []byte) ([]byte, error) {
		time.Sleep(200 * time.Microsecond) // scoring work
		doc, err := leafCh.Call(ctx, "storage/Read", p)
		if err != nil {
			return nil, err
		}
		return doc, nil
	})
	shardL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go shardSrv.Serve(shardL)
	defer shardSrv.Close()

	frontOpts := opts
	frontOpts.ClusterName = "frontend-pool"
	shardCh, err := stubby.Dial(shardL.Addr().String(), "shard-pool", frontOpts)
	if err != nil {
		log.Fatal(err)
	}
	defer shardCh.Close()

	// Frontend: fan out to every shard in parallel, aggregate results.
	frontSrv := stubby.NewServer(opts)
	frontSrv.Register("searchfe/Search", func(ctx context.Context, p []byte) ([]byte, error) {
		type result struct {
			doc []byte
			err error
		}
		results := make(chan result, shards)
		for i := 0; i < shards; i++ {
			i := i
			go func() {
				doc, err := shardCh.Call(ctx, "searchshard/Query",
					[]byte(fmt.Sprintf("%s#%d", p, i)))
				results <- result{doc, err}
			}()
		}
		var hits []string
		for i := 0; i < shards; i++ {
			r := <-results
			if r.err != nil {
				return nil, r.err
			}
			hits = append(hits, string(r.doc))
		}
		return []byte(strings.Join(hits, ", ")), nil
	})
	frontL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go frontSrv.Serve(frontL)
	defer frontSrv.Close()

	clientCh, err := stubby.Dial(frontL.Addr().String(), "frontend-pool", opts)
	if err != nil {
		log.Fatal(err)
	}
	defer clientCh.Close()

	start := time.Now()
	out, err := clientCh.Call(context.Background(), "searchfe/Search", []byte("cloud rpc"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search returned %d hits in %v\n\n", shards, time.Since(start).Round(time.Microsecond))
	_ = out

	// Reconstruct the tree: one root, `shards` children, each with one
	// storage child — wider than deep, exactly the paper's shape.
	for _, tr := range trace.BuildGraphs(col.Spans()) {
		if tr.Root.Span.Method != "searchfe/Search" {
			continue
		}
		fmt.Printf("trace tree: %d spans, depth %d, root fan-out %d (wider than deep)\n",
			tr.Spans, tr.Stat().Depth, len(tr.Root.Children))
		fmt.Printf("  root %s: %v (app %v — includes all nested calls)\n",
			tr.Root.Span.Method,
			tr.Root.Span.Latency().Round(time.Microsecond),
			tr.Root.Span.Breakdown[trace.ServerApp].Round(time.Microsecond))
		for i, shard := range tr.Root.Children {
			if i >= 3 {
				fmt.Printf("  ... %d more shards\n", len(tr.Root.Children)-3)
				break
			}
			fmt.Printf("  shard %s: %v, %d storage calls\n",
				shard.Span.Method, shard.Span.Latency().Round(time.Microsecond),
				len(shard.Children))
		}
	}
}
