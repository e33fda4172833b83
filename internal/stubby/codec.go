package stubby

import (
	"runtime"
	"sync"

	"rpcscale/internal/sanitize"
	"rpcscale/internal/secure"
	"rpcscale/internal/wire"
)

// Pipelined crypto (DESIGN.md §16): a bounded pool of per-connection
// codec workers seals and opens large frames off the send/recv loops, so
// the loops only do framing, writev, and reassembly. Ordering is
// preserved structurally — seal jobs are consumed in submission order
// under the transport send lock, and nonces travel inside each message so
// out-of-order sealing is safe (secure.Worker). Small frames never pay
// the hand-off: they stay on the inline path below codecInlineMax.

// codecInlineMax is the frame-payload size at and below which seal/open
// stays inline in the calling loop. Hand-off costs two channel transfers
// and a buffer copy on the open side; below ~4 KiB the AES-GCM work is
// cheaper than the coordination.
const codecInlineMax = 4 << 10

type codecOp uint8

const (
	codecSeal codecOp = iota
	codecOpen
)

// codecJob is one seal or open unit of work. Jobs are pooled (getJob /
// putJob) and completion is signaled on the 1-buffered done channel, so
// workers never block handing a result back and a submitter can harvest
// results in any order it likes — the data plane harvests in submission
// order to keep frame order.
type codecJob struct {
	op    codecOp
	typ   byte // frame type; selects the AAD rule on open
	flags byte // chunk flags; sealed as AAD ahead of the payload
	aad   [1]byte
	// in is the input: for seal, the caller's plaintext (borrowed — the
	// caller keeps it alive until the job completes and never receives
	// ownership back); for open, the sealed bytes in a pooled buffer the
	// job owns and releases.
	//rpclint:owns
	in []byte
	// out is the result: a pooled buffer holding the sealed frame payload
	// (seal) or the decrypted plaintext (open). Ownership transfers to
	// whoever harvests the job via done.
	//rpclint:owns
	out  []byte
	err  error
	done chan struct{}
}

// run executes the job on a worker goroutine. sealW is that worker's
// private sealing state; open sessions are concurrency-safe as-is.
func (j *codecJob) run(sealW *secure.Worker, open *secure.Session) {
	switch j.op {
	case codecSeal:
		buf := wire.GetBuf(1 + len(j.in) + secure.Overhead)
		buf = append(buf, j.flags)
		j.aad[0] = j.flags
		j.out = sealW.SealAppendAAD(buf, j.in, j.aad[:1])
		j.in = nil // borrowed from the submitter; not ours to release
	case codecOpen:
		sealed := j.in
		var aad []byte
		if j.typ == wire.FrameStreamChunk {
			j.aad[0] = j.flags
			aad = j.aad[:1]
		}
		buf := wire.GetBuf(len(sealed) - secure.Overhead)
		out, err := open.OpenAppendAAD(buf, sealed, aad)
		if err != nil {
			wire.PutBuf(buf)
			j.err = err
		} else {
			j.out = out
		}
		j.in = nil
		wire.PutBuf(sealed)
	}
}

// codecPool runs the codec workers for one connection. Shutdown protocol:
// submitters bracket each submit-and-harvest cycle with enter/exit; close
// marks the pool closing (new enter calls fail, callers fall back to the
// inline path), waits for in-flight cycles to finish, then closes the job
// channel — the workers' goroleak shutdown edge — and joins them.
type codecPool struct {
	jobs chan *codecJob
	wg   sync.WaitGroup

	seal *secure.Session
	open *secure.Session
	obs  Observer // optional codec-queue telemetry

	mu      sync.Mutex // rank sanitize.RankCodecQueue
	free    []*codecJob
	subs    int           // submitters currently inside an enter/exit cycle
	closing bool          // set by close; no new cycles may start
	idle    chan struct{} // 1-buffered: last exiting submitter wakes close
}

// newCodecPool starts workers goroutines sealing with seal and opening
// with open. obs may be nil.
func newCodecPool(workers int, seal, open *secure.Session, obs Observer) *codecPool {
	p := &codecPool{
		// Two queued jobs per worker keeps every worker busy while the
		// submitting loop is itself copying or framing.
		jobs: make(chan *codecJob, 2*workers),
		seal: seal,
		open: open,
		obs:  obs,
		free: make([]*codecJob, 0, 4*workers),
		idle: make(chan struct{}, 1),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// lock and unlock wrap mu with the sanitize rank checker. The pool mutex
// may be held while the buffer-pool leaf lock is taken (putJob callers do
// not, but the rank leaves room), never the other way around.
func (p *codecPool) lock() {
	p.mu.Lock()
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankCodecQueue, "stubby.codecPool.mu")
	}
}

func (p *codecPool) unlock() {
	if sanitize.Enabled {
		sanitize.LockReleased(sanitize.RankCodecQueue)
	}
	p.mu.Unlock()
}

// worker drains the job channel until close closes it.
func (p *codecPool) worker() {
	defer p.wg.Done()
	w := p.seal.NewWorker()
	for j := range p.jobs {
		j.run(w, p.open)
		j.done <- struct{}{} // 1-buffered: never blocks
	}
}

// enter opens a submit-and-harvest cycle; it returns false when the pool
// is shutting down, in which case the caller must use the inline path.
// Every enter that returns true must be paired with exit after the last
// submitted job has been harvested.
func (p *codecPool) enter() bool {
	p.lock()
	if p.closing {
		p.unlock()
		return false
	}
	p.subs++
	p.unlock()
	return true
}

// exit closes a cycle opened by enter.
func (p *codecPool) exit() {
	p.lock()
	p.subs--
	wake := p.closing && p.subs == 0
	p.unlock()
	if wake {
		select {
		case p.idle <- struct{}{}:
		default:
		}
	}
}

// close shuts the pool down: it fails future enter calls, waits for
// in-flight cycles, stops the workers, and joins them. Idempotent; a
// second caller returns immediately (the first finishes the join).
func (p *codecPool) close() {
	p.lock()
	if p.closing {
		p.unlock()
		return
	}
	p.closing = true
	wait := p.subs > 0
	p.unlock()
	if wait {
		<-p.idle
	}
	close(p.jobs)
	p.wg.Wait()
}

// getJob takes a pooled job (or makes one).
func (p *codecPool) getJob() *codecJob {
	p.lock()
	if n := len(p.free); n > 0 {
		j := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.unlock()
		return j
	}
	p.unlock()
	return &codecJob{done: make(chan struct{}, 1)}
}

// putJob recycles a harvested job. The caller must have taken ownership
// of j.out (or released it) first.
func (p *codecPool) putJob(j *codecJob) {
	j.in, j.out, j.err = nil, nil, nil
	p.lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, j)
	}
	p.unlock()
}

// submit enqueues a job for the workers. The caller must be inside an
// enter/exit cycle, which guarantees the channel is open and a worker
// will complete the job.
func (p *codecPool) submit(j *codecJob) {
	if p.obs != nil {
		p.obs.CodecJobEnqueued(len(p.jobs))
	}
	p.jobs <- j
}

// submitSealChunks submits one seal job per bulk chunk of data (nextChunk),
// appending the jobs to dst in submission order. The caller must be inside
// an enter/exit cycle, must keep data alive and unmodified until every job
// is harvested, and must harvest the jobs in order — the transport's
// appendSealedLocked does both.
func (p *codecPool) submitSealChunks(dst []*codecJob, data []byte, endFlags byte) []*codecJob {
	for {
		chunk, rest, flags := nextChunk(data, endFlags)
		j := p.getJob()
		j.op = codecSeal
		j.flags = flags
		j.in = chunk
		dst = append(dst, j)
		p.submit(j)
		if flags != 0 {
			return dst
		}
		data = rest
	}
}

// codecWorkerCount sizes a connection's codec pool from GOMAXPROCS: no
// pool on a single-proc runtime, where hand-off can only lose, and capped
// so one connection cannot monopolize a large machine.
func codecWorkerCount() int {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		return 0
	}
	return min(procs, codecPoolMax)
}

// codecPoolMax caps the per-connection pool.
const codecPoolMax = 8
