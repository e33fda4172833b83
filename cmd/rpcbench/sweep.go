package main

// The -sweep mode: throughput vs payload size across the three data
// lanes — the unary envelope path, the zero-copy bulk lane, and credit-
// windowed streams — in the style of the paper's size figures (Figs. 6/7).
// Each cell drives the same loopback server with a fixed byte budget so
// small payloads get many calls and large ones few, keeping wall time
// bounded across the 128 B … 1 MiB range.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"rpcscale/internal/stubby"
)

// sweepSizes spans the paper's payload range: the 128 B mice through the
// 1 MiB tail (beyond the 563 KB P99 response of Fig. 7).
var sweepSizes = []int{128, 512, 2 * 1024, 8 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024}

// sweepBudget is the byte volume driven per (size, lane) cell.
const sweepBudget = 32 << 20

type sweepConfig struct {
	Conc    int // concurrent unary callers
	Streams int // concurrent streams per size; 0 disables the stream lane
}

func sweepCalls(size int) int {
	n := sweepBudget / size
	if n > 8192 {
		return 8192
	}
	if n < 64 {
		return 64
	}
	return n
}

// runSweep measures each lane at each payload size and prints the table.
func runSweep(cfg sweepConfig) error {
	srv := stubby.NewServer(stubby.Options{Workers: cfg.Conc})
	srv.Register("bench.Sweep/Echo", func(ctx context.Context, p []byte) ([]byte, error) {
		return p, nil
	})
	srv.RegisterBidi("bench.Sweep/Pump", func(ctx context.Context, st *stubby.Stream) error {
		for {
			msg, err := st.Recv()
			if err != nil {
				return nil // EOF or reset: the client is done
			}
			if err := st.Send(msg); err != nil {
				return err
			}
		}
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := stubby.Dial(l.Addr().String(), "", stubby.Options{})
	if err != nil {
		return err
	}
	defer ch.Close()

	fmt.Printf("rpcbench sweep: %d unary callers, %d streams, %d MiB per cell\n\n",
		cfg.Conc, cfg.Streams, sweepBudget>>20)
	fmt.Printf("  %-10s %14s %14s", "payload", "unary MB/s", "bulk MB/s")
	if cfg.Streams > 0 {
		fmt.Printf(" %14s", "stream MB/s")
	}
	fmt.Println()

	for _, size := range sweepSizes {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i)
		}
		calls := sweepCalls(size)

		unary, err := sweepUnary(ch, payload, calls, cfg.Conc, stubby.WithBulkLane(false))
		if err != nil {
			return fmt.Errorf("unary %s: %w", sizeLabel(size), err)
		}
		bulk, err := sweepUnary(ch, payload, calls, cfg.Conc, stubby.WithBulkLane(true))
		if err != nil {
			return fmt.Errorf("bulk %s: %w", sizeLabel(size), err)
		}
		fmt.Printf("  %-10s %14.1f %14.1f", sizeLabel(size), unary, bulk)
		if cfg.Streams > 0 {
			stream, err := sweepStreams(ch, payload, calls, cfg.Streams)
			if err != nil {
				return fmt.Errorf("stream %s: %w", sizeLabel(size), err)
			}
			fmt.Printf(" %14.1f", stream)
		}
		fmt.Println()
	}
	fmt.Println("\n  MB/s is one-way payload throughput; every lane echoes the payload back.")
	return nil
}

// sweepUnary drives calls echo round trips with conc concurrent callers
// on the given lane and returns one-way payload MB/s.
func sweepUnary(ch *stubby.Channel, payload []byte, calls, conc int, lane stubby.CallOption) (float64, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range callsFor(w, calls, conc) {
				out, err := ch.Call(context.Background(), "bench.Sweep/Echo", payload, lane)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				stubby.FreeResponse(out)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	elapsed := time.Since(start).Seconds()
	return float64(calls) * float64(len(payload)) / elapsed / 1e6, nil
}

// sweepStreams ping-pongs items across n concurrent streams on the one
// connection and returns aggregate one-way MB/s.
func sweepStreams(ch *stubby.Channel, payload []byte, items, n int) (float64, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			// A window of 2x the item covers the in-flight echo in each
			// direction; small items keep the default-sized 256 KiB window.
			win := 2 * len(payload)
			if win < 256<<10 {
				win = 256 << 10
			}
			st, err := ch.OpenStream(context.Background(), "bench.Sweep/Pump",
				stubby.WithStreamWindow(win))
			if err != nil {
				fail(err)
				return
			}
			defer st.Close()
			for range callsFor(w, items, n) {
				if err := st.Send(payload); err != nil {
					fail(err)
					return
				}
				if _, err := st.Recv(); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	elapsed := time.Since(start).Seconds()
	return float64(items) * float64(len(payload)) / elapsed / 1e6, nil
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1024:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
