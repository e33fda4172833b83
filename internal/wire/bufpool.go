package wire

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"rpcscale/internal/sanitize"
)

// Each size class keeps a mutex-guarded stack of free buffers in a fixed
// array. A sync.Pool would hand out per-P caches, but Put must box the
// slice header into an interface — one heap allocation per recycle —
// which defeats the point of pooling on the hot path. The fixed array
// stores slice headers directly, so Get and Put are allocation-free.
const poolDepth = 64

// maxRetainedPerClass caps the bytes a class may pin (4 MiB), so the
// large classes keep proportionally fewer buffers than poolDepth allows.
const maxRetainedPerClass = 4 << 20

type bufClass struct {
	mu   sync.Mutex
	n    int // free[:n] are available
	free [poolDepth][]byte
}

// lock and unlock wrap mu with the sanitize rank checker: the pool
// mutex is a leaf (rank RankBufPool) — nothing may be acquired under it.
func (p *bufClass) lock() {
	p.mu.Lock()
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankBufPool, "wire.bufPools")
	}
}

func (p *bufClass) unlock() {
	if sanitize.Enabled {
		sanitize.LockReleased(sanitize.RankBufPool)
	}
	p.mu.Unlock()
}

// depth returns the whole-class retention limit for class cls.
func depth(cls int) int {
	d := maxRetainedPerClass >> (cls + minPoolClass)
	if d > poolDepth {
		return poolDepth
	}
	if d < 4 {
		return 4
	}
	return d
}

// Size-classed buffer pool for the data plane. The send path threads
// these buffers through marshal→compress→seal and the recv path through
// open→decompress, so steady-state traffic recycles a small working set
// instead of allocating per message.
//
// Ownership contract: GetBuf transfers ownership to the caller; whoever
// holds the buffer last returns it with PutBuf once no live slice aliases
// it. Returning a buffer is best-effort — a buffer that goes out of scope
// without PutBuf is simply collected by the GC, so error paths may drop
// buffers but must never return one that is still referenced.

const (
	minPoolClass = 9  // smallest pooled capacity: 512 B
	maxPoolClass = 20 // largest pooled capacity: 1 MiB
)

// One free stack per size class, so a Get finds every buffer the Puts of
// its class returned. (Shards picked round-robin from the Get and Put
// counters can strand a class's buffers in one shard while its Gets find
// another empty, and allocate.)
var bufPools [maxPoolClass - minPoolClass + 1]bufClass

// poolGets and poolPuts count GetBuf and PutBuf calls (including the
// out-of-class fallbacks). Their difference bounds the buffers currently
// owned by callers; leak tests assert it stays flat across iterations.
var poolGets, poolPuts atomic.Int64

// PoolCounters reports the cumulative GetBuf and PutBuf call counts.
// gets-puts is the number of outstanding buffers: it may be non-zero at
// any instant (buffers legitimately in flight, or dropped to the GC on
// error paths), but must not grow without bound in steady state.
func PoolCounters() (gets, puts int64) {
	return poolGets.Load(), poolPuts.Load()
}

// GetBuf returns a buffer with len 0 and cap >= n for the caller to
// append into. Requests beyond the largest size class are plain
// allocations that PutBuf will decline to pool.
func GetBuf(n int) []byte {
	poolGets.Add(1)
	if n > 1<<maxPoolClass {
		return make([]byte, 0, n)
	}
	cls := 0
	if n > 1<<minPoolClass {
		cls = bits.Len(uint(n-1)) - minPoolClass // ceil(log2 n) - min
	}
	p := &bufPools[cls]
	p.lock()
	if p.n > 0 {
		p.n--
		b := p.free[p.n]
		p.free[p.n] = nil
		p.unlock()
		poisonGet(b)
		return b
	}
	p.unlock()
	return make([]byte, 0, 1<<(cls+minPoolClass))
}

// PutBuf recycles a buffer obtained from GetBuf (nil is a no-op). The
// caller must not touch b afterwards. Buffers are filed under the largest
// class their capacity covers, so a pooled buffer always satisfies the
// capacity promise of the class it is handed out from.
func PutBuf(b []byte) {
	if b == nil {
		return
	}
	poolPuts.Add(1)
	c := cap(b)
	if c < 1<<minPoolClass || c > 1<<maxPoolClass {
		return
	}
	cls := bits.Len(uint(c)) - 1 - minPoolClass // floor(log2 cap) - min
	poisonCheckPut(b)
	p := &bufPools[cls]
	p.lock()
	if p.n < depth(cls) {
		poisonRetain(b)
		p.free[p.n] = b[:0]
		p.n++
	}
	p.unlock()
}
