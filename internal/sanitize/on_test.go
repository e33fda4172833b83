//go:build sanitize

package sanitize

import (
	"strings"
	"testing"
)

func TestRankOrderAllowed(t *testing.T) {
	LockAcquired(RankStreamSend, "stubby.Stream.sendMu")
	LockAcquired(RankSendTurn, "stubby.sendTurn.mu")
	LockAcquired(RankTransportSend, "stubby.transport.sendMu")
	LockAcquired(RankBufPool, "wire.bufPools")
	LockReleased(RankBufPool)
	LockReleased(RankTransportSend)
	LockReleased(RankSendTurn)
	LockReleased(RankStreamSend)
}

func TestRankInversionPanics(t *testing.T) {
	LockAcquired(RankTransportSend, "stubby.transport.sendMu")
	defer LockReleased(RankTransportSend)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on rank inversion")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "rank inversion") {
			t.Fatalf("panic = %v, want rank inversion report", r)
		}
	}()
	LockAcquired(RankStreamRecv, "stubby.Stream.recvMu")
}

func TestSameRankPanics(t *testing.T) {
	LockAcquired(RankStreamRecv, "stubby.Stream.recvMu")
	defer LockReleased(RankStreamRecv)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on same-rank nesting")
		}
	}()
	LockAcquired(RankStreamRecv, "stubby.Stream.recvMu")
}

// TestNonLIFORelease mirrors sync.Mutex semantics: locks need not be
// released innermost-first, and the stack must stay consistent.
func TestNonLIFORelease(t *testing.T) {
	LockAcquired(RankStreamSend, "a")
	LockAcquired(RankTransportSend, "b")
	LockReleased(RankStreamSend)
	LockAcquired(RankBufPool, "c") // still fine: innermost held is rank 30
	LockReleased(RankBufPool)
	LockReleased(RankTransportSend)
}
