// Package goroleak exercises the goroutine-leak analyzer: spawned
// condition-less loops with no shutdown edge are flagged; loops bounded
// by a channel, select, context, WaitGroup, or blocking reader are not.
package goroleak

import (
	"context"
	"io"
	"sync"
	"time"
)

var tick int

func work() { tick++ }

func spinForever() {
	for {
		work()
	}
}

func SpawnNamed() {
	go spinForever() // want `goroleak: goroutine loops forever \(line \d+\) with no shutdown edge`
}

func SpawnLiteral() {
	go func() { // want `goroleak: goroutine loops forever \(line \d+\) with no shutdown edge`
		for {
			tick++
		}
	}()
}

// A justified suppression on the go statement mutes the finding.
func SpawnSuppressed() {
	go spinForever() //rpclint:ignore goroleak fixture: process-lifetime daemon by design
}

// Receiving from a channel is a shutdown edge: the spawner can close it.
func drain(ch chan int) {
	for {
		v, ok := <-ch
		if !ok {
			return
		}
		tick += v
	}
}

func SpawnChannel(ch chan int) {
	go drain(ch)
}

// A select gives the loop an exit arm.
func SpawnSelect(done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				work()
			}
		}
	}()
}

// Touching a context inside the loop counts as a shutdown edge.
func pollCtx(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		work()
	}
}

func SpawnContext(ctx context.Context) {
	go pollCtx(ctx)
}

// A blocking reader call bounds the loop: closing the source unblocks it.
func pump(r io.Reader) {
	buf := make([]byte, 64)
	for {
		if _, err := r.Read(buf); err != nil {
			return
		}
	}
}

func SpawnReader(r io.Reader) {
	go pump(r)
}

// A WaitGroup join inside the loop bounds each iteration; an edge
// outside the loop (say, a defer) would not stop it and does not count.
func SpawnWaited(wg *sync.WaitGroup) {
	go func() {
		for {
			wg.Wait()
			work()
		}
	}()
}

// A conditioned loop terminates on its own; only `for {` is suspect.
func countdown(n int) {
	for n > 0 {
		n--
	}
}

func SpawnConditioned() {
	go countdown(1000)
}

// The receiver of a package-qualified call is a package name, which has
// no type: time.Since is no shutdown edge (and must not crash the
// analyzer); io.ReadFull matches an exit call by name like any reader.
func SpawnPackageCalls(r io.Reader) {
	start := time.Now()
	go func() { // want `goroleak: goroutine loops forever \(line \d+\) with no shutdown edge`
		for {
			if time.Since(start) > time.Hour {
				work()
			}
		}
	}()
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(r, buf); err != nil {
				return
			}
		}
	}()
}
