package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/secure"
	"rpcscale/internal/telemetry"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

const (
	// traceFileCalls bounds the calls per phase written to the trace file;
	// the metrics use every call of the phase.
	traceFileCalls = 2000
	// replayMaxCalls bounds the layer replay, whose every call leaves some
	// twenty spans in memory.
	replayMaxCalls = 20000
	// microSamples bounds the spans replayed through Collect and Observe.
	microSamples = 20000
	// The stack's own thresholds, mirrored by the replay: payloads from
	// bulkThreshold up travel as bulkChunk-sized chunk frames, uncompressed.
	bulkThreshold = 16 << 10
	bulkChunk     = 64 << 10
)

// componentMetric names the per-layer metric of each span component.
var componentMetric = [trace.NumComponents]string{
	trace.ClientSendQueue: "stubby.client_send_queue_us",
	trace.ReqProcStack:    "stubby.req_proc_stack_us",
	trace.ReqNetworkWire:  "stubby.req_wire_us",
	trace.ServerRecvQueue: "stubby.server_recv_queue_us",
	trace.ServerApp:       "stubby.server_app_us",
	trace.ServerSendQueue: "stubby.server_send_queue_us",
	trace.RespProcStack:   "stubby.resp_proc_stack_us",
	trace.RespNetworkWire: "stubby.resp_wire_us",
	trace.ClientRecvQueue: "stubby.client_recv_queue_us",
}

func (r *result) putRuntime(before, after *runtime.MemStats) {
	r.put("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	r.put("runtime.gc_pause_total_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.put("runtime.total_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
}

// traceRPC is the --trace 1 run of an RPC workload. One caller, so spans do
// not overlap. The run is split between an untraced pass (counts per call),
// a traced pass (the stack's own nine-component spans), a replay of every
// layer's public functions on the same inputs, the raw-socket floor and a
// few single-function timings.
func traceRPC(spec runSpec, tracePath string) (*result, error) {
	dur := spec.dur
	r := newResult(perLayer)
	if err := resetTrace(tracePath); err != nil {
		return nil, err
	}
	base := poolOutstanding()
	untraced, err := countsPass(r, spec, dur*2/10)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	traced, err := stackPass(r, spec, dur*3/10, tracePath)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	overhead := 1 - traced.rate/untraced.callsPerS
	r.put("loadgen.trace_overhead_share", overhead)
	if overhead > 0.2 {
		fmt.Fprintf(os.Stderr, "bench: warning: tracing slowed %s by %.0f%%; per-layer numbers overstate the stack\n", spec.workload, overhead*100)
	}
	observerCosts(r, traced)
	if err := replayPass(r, traced, dur, tracePath); err != nil {
		return nil, err
	}
	singleFunctions(r, traced.in, dur/40)

	outstanding := poolLeak(base)
	r.put("wire.pool_outstanding", float64(outstanding))
	r.Attempted = untraced.attempted + int64(len(traced.spans))
	r.Failed = untraced.failed + traced.failed
	r.Correct = r.Failed == 0 && outstanding == 0
	return r, nil
}

// countsPass runs the workload untraced from one caller and turns the
// counters the stack and the runtime keep into per-call counts.
func countsPass(r *result, spec runSpec, dur time.Duration) (runSummary, error) {
	env, _, err := setupRPC(spec, 1, nil)
	if err != nil {
		return runSummary{}, err
	}
	in := env.in
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	gets0, _ := wire.PoolCounters()
	enc0, comp0 := readSecure(in.opts.EncryptionStats), readCompressor(in.opts.CompressorStats)
	logs, elapsed, cpu := timedRun(env.call, 1, 0, dur)
	runtime.ReadMemStats(&ms1)
	gets1, _ := wire.PoolCounters()
	enc1, comp1 := readSecure(in.opts.EncryptionStats), readCompressor(in.opts.CompressorStats)
	if in.plane != nil {
		t0 := time.Now()
		snap := in.plane.Snapshot()
		r.put("telemetry.snapshot_ms", time.Since(t0).Seconds()*1e3)
		r.put("telemetry.spans_seen", float64(snap.Calls))
		r.put("telemetry.span_overflow", float64(in.plane.Collector().Overflow()))
		r.put("telemetry.codec_jobs", float64(in.plane.CodecJobs()))
	}
	env.close()
	s := summarize(logs, elapsed, cpu)
	if s.attempted == s.failed {
		return s, fmt.Errorf("no call succeeded: %v", s.firstErr)
	}
	calls := float64(s.attempted)
	r.putRuntime(&ms0, &ms1)
	r.put("stubby.allocs_per_call", float64(ms1.Mallocs-ms0.Mallocs)/calls)
	r.put("stubby.bytes_alloc_per_call", float64(ms1.TotalAlloc-ms0.TotalAlloc)/calls)
	r.put("wire.pool_gets_per_call", float64(gets1-gets0)/calls)
	r.put("secure.seals_per_call", float64(enc1.seals-enc0.seals)/calls)
	r.put("secure.opens_per_call", float64(enc1.opens-enc0.opens)/calls)
	r.put("secure.bytes_encrypted_per_call", float64(enc1.bytes-enc0.bytes)/calls)
	compress := float64(comp1.compress - comp0.compress)
	r.put("compressor.calls_per_call", (compress+float64(comp1.decompress-comp0.decompress))/calls)
	if compress > 0 {
		r.put("compressor.ratio", float64(comp1.out-comp0.out)/float64(comp1.in-comp0.in))
		r.put("compressor.skip_share", 1-compress/calls)
	}
	r.put("loadgen.goodput_mb_s", s.goodputMBs)
	r.put("fleet.catalog_build_ms", in.catalogBuild.Seconds()*1e3)
	return s, nil
}

// tracedPass is what stackPass leaves for the passes after it.
type tracedPass struct {
	in        *rpcInputs
	spans     []*trace.Span // the stack's span of every call, in call order
	callP50Us float64       // the benchmark's own timing of Channel.Call
	rate      float64       // calls per second over the pass
	failed    int64
}

// stackPass runs the same inputs with a collector on the client. The
// benchmark times a call span around every Channel.Call; the stack's
// breakdown of that call becomes the span's children.
func stackPass(r *result, spec runSpec, dur time.Duration, tracePath string) (*tracedPass, error) {
	collector := trace.New()
	env, _, err := setupRPC(spec, 1, collector)
	if err != nil {
		return nil, err
	}
	collector.Reset() // drop the warm-up's spans
	p := &tracedPass{in: env.in}
	rec := newRecorder(traceFileCalls * (1 + trace.NumComponents))
	var callNs []float64
	for start := time.Now(); time.Since(start) < dur; {
		t0 := rec.now()
		_, err := env.call(len(callNs))
		t1 := rec.now()
		if err != nil {
			p.failed++
		}
		callNs = append(callNs, float64(t1-t0))
		if len(callNs) <= traceFileCalls {
			rec.add("call", int32(len(callNs)-1), -1, t0, t1)
		}
	}
	p.rate = float64(len(callNs)) / time.Duration(rec.now()).Seconds()
	env.close()
	p.spans = collector.Spans()
	if len(p.spans) != len(callNs) {
		return nil, fmt.Errorf("%d calls left %d spans", len(callNs), len(p.spans))
	}
	// Children laid end to end from the moment the call began. The first
	// traceFileCalls spans of rec are the calls, in order.
	for i := 0; i < min(len(p.spans), traceFileCalls); i++ {
		at := rec.spans[i].Start
		for c, d := range p.spans[i].Breakdown {
			rec.add(trace.Component(c).String(), int32(i), int32(i), at, at+int64(d))
			at += int64(d)
		}
	}
	var queue, tax, total []float64
	comps := make([][]float64, trace.NumComponents)
	for _, s := range p.spans {
		for c, d := range s.Breakdown {
			comps[c] = append(comps[c], float64(d)/1e3)
		}
		queue = append(queue, float64(s.Breakdown.Queue())/1e3)
		tax = append(tax, float64(s.Breakdown.Tax()))
		total = append(total, float64(s.Breakdown.Total()))
	}
	for c, name := range componentMetric {
		r.put(name, median(comps[c]))
	}
	sort.Float64s(queue)
	r.put("stubby.queue_p99_us", quantile(queue, 0.99))
	if t := sum(total); t > 0 {
		r.put("stubby.tax_share", sum(tax)/t)
	}
	p.callP50Us = median(callNs) / 1e3
	r.put("stubby.call_p50_us", p.callP50Us)
	r.put("loadgen.samples", float64(len(callNs)))
	return p, writeTrace(tracePath, "stack", rec.spans)
}

// observerCosts times what the span observers cost per span, on the spans
// the traced pass recorded.
func observerCosts(r *result, p *tracedPass) {
	sample := p.spans[:min(len(p.spans), microSamples)]
	perSpan := func(observe func(*trace.Span)) float64 {
		t0 := time.Now()
		for _, s := range sample {
			observe(s)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(sample))
	}
	r.put("trace.collect_ns", perSpan(trace.New().Collect))
	if p.in.plane != nil {
		r.put("telemetry.observe_ns", perSpan(telemetry.New(telemetry.WithSpanCapacity(planeSpanCapacity)).Observe))
	}
}

// replayPass replays the layers on the traced pass's inputs, measures the
// raw-socket floor on the same size schedule, and reconciles the two with
// the traced call.
func replayPass(r *result, p *tracedPass, dur time.Duration, tracePath string) error {
	in := p.in
	rp, err := newReplayer(in.opts.Compression, in.opts.CompressThreshold)
	if err != nil {
		return err
	}
	err = rp.run(in.ops, dur*25/100)
	rp.close()
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	d := durations(rp.rec.spans)
	r.put("wire.frame_write_ns", median(d["wire.BeginFrame"])+median(d["wire.EndFrame"])+median(d["wire.AppendFrameVec"]))
	r.put("wire.flush_ns", median(d["wire.Flush"]))
	r.put("wire.frame_read_ns", median(d["wire.ReadFrame"]))
	r.put("secure.seal_ns", median(d["secure.Seal"]))
	r.put("secure.open_ns", median(d["secure.Open"]))
	r.put("secure.seal_mb_s", mbPerS(rp.sealed, d["secure.Seal"]))
	r.put("secure.open_mb_s", mbPerS(rp.sealed, d["secure.Open"]))
	r.put("compressor.compress_ns", median(d["compressor.Compress"]))
	r.put("compressor.decompress_ns", median(d["compressor.Decompress"]))
	r.put("compressor.compress_mb_s", mbPerS(rp.compressed, d["compressor.Compress"]))
	r.put("compressor.decompress_mb_s", mbPerS(rp.compressed, d["compressor.Decompress"]))
	cut := sort.Search(len(rp.rec.spans), func(i int) bool { return rp.rec.spans[i].Call >= traceFileCalls })
	if err := writeTrace(tracePath, "replay", rp.rec.spans[:cut]); err != nil {
		return err
	}

	tcp, err := rawRTT("tcp", "127.0.0.1:0", in.ops, dur/20)
	if err != nil {
		return fmt.Errorf("raw tcp floor: %w", err)
	}
	uds, err := rawRTT("unix", fmt.Sprintf("@rpcscale-bench-%d", os.Getpid()), in.ops, dur/20)
	if err != nil {
		return fmt.Errorf("raw unix floor: %w", err)
	}
	r.put("rawsock.tcp_rtt_us", tcp/1e3)
	r.put("rawsock.uds_rtt_us", uds/1e3)

	// What the layers below stubby explain of a call: the raw round trip
	// plus the replay's time outside the socket. The replay's own Flush and
	// ReadFrame are left out of the sum because one goroutine playing both
	// ends waits for each leg's kernel transit in turn, which two ends do not.
	compute := replayCompute(rp.rec.spans) / 1e3
	explained := tcp/1e3 + compute
	r.put("stubby.replay_compute_us", compute)
	r.put("stubby.replay_total_us", explained)
	r.put("stubby.residual_us", p.callP50Us-explained)
	r.put("stubby.residual_share", (p.callP50Us-explained)/p.callP50Us)
	return nil
}

// singleFunctions times single public functions at the workload's typical
// sizes, each for about budget.
func singleFunctions(r *result, in *rpcInputs, budget time.Duration) {
	frame := medianFrame(in.ops)
	r.put("wire.bufpool_getput_ns", timePerOp(budget, 1024, func() {
		for i := 0; i < 1024; i++ {
			wire.PutBuf(wire.GetBuf(frame))
		}
	}))
	r.put("wire.allocs_per_frame", allocsPerFrame(frame))
	if in.opts.Compression != compressor.None {
		c := compressor.New(in.opts.Compression, nil)
		payload := in.ops[0].req
		for _, o := range in.ops {
			if len(o.req) >= in.opts.CompressThreshold && len(o.req) < bulkThreshold {
				payload = o.req
				break
			}
		}
		r.put("compressor.allocs_per_op", allocsPer(200, func() {
			if out, err := c.Compress(payload); err == nil {
				_, _ = c.Decompress(out) // only the allocation count matters here
			}
		})/2)
	}
	// The generator's own recording path, around a call that does nothing.
	nop := func(seq int) (*op, error) { return &in.ops[seq%len(in.ops)], nil }
	if n := summarize(timedRun(nop, 1, 0, budget)); n.callsPerS > 0 {
		r.put("loadgen.overhead_ns_per_call", 1e9/n.callsPerS)
	}
}

// replayCompute is the median over replayed calls of the replay_call span's
// duration less its socket spans, in ns: the layers' own work for one call.
func replayCompute(spans []span) float64 {
	var perCall []float64
	for i := range spans {
		switch s := &spans[i]; {
		case s.Parent < 0:
			perCall = append(perCall, float64(s.End-s.Start))
		case s.Name == "wire.Flush" || s.Name == "wire.ReadFrame":
			perCall[s.Call] -= float64(s.End - s.Start)
		}
	}
	return median(perCall)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mbPerS is bytes over the summed span durations (ns), in MB/s.
func mbPerS(bytes int64, ns []float64) float64 {
	if t := sum(ns); t > 0 {
		return float64(bytes) / 1e6 / (t / 1e9)
	}
	return 0
}

type secureCounts struct{ seals, opens, bytes uint64 }

func readSecure(s *secure.Stats) secureCounts {
	return secureCounts{s.Seals.Load(), s.Opens.Load(), s.BytesEncrypted.Load()}
}

type compressorCounts struct{ compress, decompress, in, out uint64 }

func readCompressor(s *compressor.Stats) compressorCounts {
	return compressorCounts{s.CompressCalls.Load(), s.DecompressCalls.Load(), s.BytesIn.Load(), s.BytesOut.Load()}
}

// medianFrame is the median request size of the schedule, capped at one bulk
// chunk: the buffer size the pool is asked for most.
func medianFrame(ops []op) int {
	sizes := make([]int, len(ops))
	for i := range ops {
		sizes[i] = min(max(len(ops[i].req), len(ops[i].want)), bulkChunk)
	}
	sort.Ints(sizes)
	return sizes[len(sizes)/2]
}

// allocsPer returns the heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	fn() // let pools fill first
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// allocsPerFrame writes and reads back size-byte frames through wire's
// Writer and Reader over an in-memory pipe and counts allocations per frame.
func allocsPerFrame(size int) float64 {
	var pipe bytes.Buffer // what is written is what is read next
	w, rd := wire.NewWriter(&pipe), wire.NewReader(&pipe)
	payload := make([]byte, size)
	return allocsPer(500, func() {
		buf, err := w.BeginFrame(wire.FrameRequest, 1, len(payload))
		if err != nil {
			return
		}
		if w.EndFrame(append(buf, payload...)) != nil || w.Flush() != nil {
			return
		}
		_, _ = rd.ReadFrame() // only the allocation count matters here
	})
}

// rawRTT is the floor under every call: two goroutines exchange the
// schedule's request and reply sizes over a bare socket, with no framing,
// sealing or queues. It returns the median round trip in ns.
func rawRTT(network, addr string, ops []op, budget time.Duration) (float64, error) {
	l, err := net.Listen(network, addr)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 1<<20)
		for i, open := 0, true; open; i++ {
			o := &ops[i%len(ops)]
			if _, err := io.ReadFull(c, buf[:len(o.req)]); err != nil {
				open = false // the client closed: done
			} else if _, err := c.Write(o.want); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	c, err := net.Dial(l.Addr().Network(), l.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 1<<20)
	var rtts []float64
	for start, i := time.Now(), 0; len(rtts) < 100 || time.Since(start) < budget; i++ {
		o := &ops[i%len(ops)]
		t0 := time.Now()
		if _, err = c.Write(o.req); err == nil {
			_, err = io.ReadFull(c, buf[:len(o.want)])
		}
		if err != nil {
			break
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds()))
	}
	c.Close()
	if serr := <-served; err == nil {
		err = serr
	}
	return median(rtts), err
}
