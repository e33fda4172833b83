//go:build sanitize

package stubby

import (
	"bytes"
	"context"
	"testing"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/wire"
)

// TestRetainedInflatedRequestIsPoisoned: a compressed request reaches its
// handler in a pooled buffer that goes back to the pool once the response
// is sealed (DESIGN.md §11: a handler's input is its own only until it
// returns). A handler that keeps the slice anyway must find the pool's
// poison there, not its request — and the next taker of that size class
// must get that very buffer.
func TestRetainedInflatedRequestIsPoisoned(t *testing.T) {
	kept := make(chan []byte, 1)
	ch, _ := testSetup(t, Options{Compression: compressor.Flate}, map[string]Handler{
		"svc/Keep": func(_ context.Context, p []byte) ([]byte, error) {
			kept <- p // illegal: p is the server's again after return
			return []byte("ok"), nil
		},
	})
	// 3000 B inflate into the 4 KiB class, which nothing else of this call
	// touches: its envelopes are a few dozen bytes.
	req := bytes.Repeat([]byte("retain "), 3000/7)
	if _, err := ch.Call(context.Background(), "svc/Keep", req); err != nil {
		t.Fatal(err)
	}
	p := <-kept
	// The response can reach the client before the server's turn has
	// released the request, so take from the class until the buffer turns
	// up; taking it is also what orders this goroutine after the poisoning.
	var held [][]byte
	defer func() {
		for _, b := range held {
			wire.PutBuf(b)
		}
	}()
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(time.Millisecond) {
		b := wire.GetBuf(len(p))
		held = append(held, b)
		if &b[:1][0] == &p[0] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the inflated request's buffer never came back to the pool")
		}
	}
	for i, c := range p {
		if c != 0xDB {
			t.Fatalf("retained request byte %d is %#x, want the pool's poison", i, c)
		}
	}
}
