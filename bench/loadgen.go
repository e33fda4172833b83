package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"rpcscale/internal/trace"
)

const (
	// callers and connections are fixed: a closed loop of two callers that
	// each wait for their reply, multiplexed over one connection.
	callers = 2
	// setupRepeats is how many times a workload is set up; setup_s is the
	// median, and the last set-up is the one measured.
	setupRepeats = 5
)

// heapSamplePeriod is how often the meter reads the GC's heap goal.
const heapSamplePeriod = 50 * time.Millisecond

// heapMeter samples the heap while a timed run goes on.
type heapMeter struct {
	stop chan struct{}
	done chan []float64
}

// startHeapMeter collects the heap, so that every run starts alike, and
// begins sampling the heap goal: the size the pacer lets the heap reach before the
// next collection ends, which follows what the program keeps alive. MemStats'
// HeapSys would be the obvious high-water mark, but it moves in 4 MB steps
// and flips a small heap between two values from run to run.
func startHeapMeter() *heapMeter {
	runtime.GC()
	m := &heapMeter{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		var goals []float64
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				metrics.Read(sample)
				goals = append(goals, float64(sample[0].Value.Uint64())/1e6)
			case <-m.stop:
				metrics.Read(sample) // a run shorter than a period still gets one
				m.done <- append(goals, float64(sample[0].Value.Uint64())/1e6)
				return
			}
		}
	}()
	return m
}

// finish stops sampling and returns the 90th percentile of the sampled heap
// goals in MB: the level the heap keeps returning to at its fullest, without
// the one-off spike a maximum would report.
func (m *heapMeter) finish() float64 {
	close(m.stop)
	goals := <-m.done
	sort.Float64s(goals)
	return quantile(goals, 0.9)
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupRPC generates the inputs, starts server and client (with collector on
// the client, if not nil) and warms the connection up from n callers. It
// returns how long that took.
func setupRPC(spec runSpec, n int, collector *trace.Collector) (*rpcEnv, time.Duration, error) {
	t0 := time.Now()
	in, err := genInputs(spec.workload, spec.seed)
	if err != nil {
		return nil, 0, err
	}
	if spec.quick {
		in.warmup /= 10
	}
	env, err := startEnv(in, collector)
	if err != nil {
		return nil, 0, err
	}
	if err := env.warmUp(n); err != nil {
		env.close()
		return nil, 0, err
	}
	return env, time.Since(t0), nil
}

// warmUp issues in.warmup checked calls from each of n callers, then clears
// the telemetry plane so that it reports the measured calls only.
func (e *rpcEnv) warmUp(n int) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < e.in.warmup; i++ {
				if _, err := e.call(c + i*n); err != nil {
					errs[c] = fmt.Errorf("warm-up call %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if e.in.plane != nil {
		e.in.plane.Reset()
	}
	return errors.Join(errs...)
}

const (
	// segmentsPerRun cuts the timed run into back-to-back segments. Each is
	// measured on its own, whole, and the run reports its better-quartile
	// segment (see quietQuartile).
	segmentsPerRun = 40
	// latencySamples bounds the latencies a caller keeps per segment. Every
	// call is counted; a uniform sample of their latencies is enough for the
	// segment's percentiles and keeps the generator's own heap small and
	// constant next to the heap it measures, which on unary_small is 4 MB.
	latencySamples = 4096
)

// callerLog is what one caller records during a segment.
type callerLog struct {
	attempted int64
	failed    int64
	firstErr  error
	bytes     int64    // request plus response payload of the successful calls
	lat       []uint32 // uniform sample of their latencies, ns
}

// timedRun issues call from n closed-loop callers, caller c with sequence
// numbers from+c, from+c+n, ..., until dur has passed. It returns their logs,
// the time until the last caller's last call completed and the CPU time the
// process used meanwhile.
func timedRun(call func(seq int) (*op, error), n, from int, dur time.Duration) (logs []*callerLog, elapsed, cpu time.Duration) {
	logs = make([]*callerLog, n)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < n; c++ {
		lg := &callerLog{lat: make([]uint32, 0, latencySamples)}
		logs[c] = lg
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(from+c)*0x9e3779b97f4a7c15 + 1 // xorshift state for the reservoir
			for seq, t0 := from+c, time.Since(start); t0 < dur; seq, t0 = seq+n, time.Since(start) {
				o, err := call(seq)
				ns := uint32(min(time.Since(start)-t0, math.MaxUint32))
				lg.attempted++
				if err != nil {
					lg.failed++
					if lg.firstErr == nil {
						lg.firstErr = err
					}
					continue
				}
				lg.bytes += o.payloadBytes()
				if len(lg.lat) < latencySamples {
					lg.lat = append(lg.lat, ns)
					continue
				}
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				if j := rng % uint64(lg.attempted-lg.failed); j < latencySamples {
					lg.lat[j] = ns
				}
			}
		}()
	}
	wg.Wait()
	return logs, time.Since(start), cpuTime() - cpu0
}

// runSummary is the end-to-end view of one timedRun: rates and costs over
// all of it, percentiles over the callers' merged latency samples.
type runSummary struct {
	attempted, failed int64
	samples           int     // latencies sampled for the percentiles
	tailPercentile    float64 // the percentile behind latencyTailUs
	firstErr          error

	callsPerS, goodputMBs, latencyP50Us, latencyTailUs, cpuUsPerCall float64
}

// summarize reduces what timedRun returned to its metrics.
func summarize(logs []*callerLog, elapsed, cpu time.Duration) runSummary {
	var s runSummary
	var payload int64
	var merged []uint32
	for _, lg := range logs {
		s.attempted += lg.attempted
		s.failed += lg.failed
		if s.firstErr == nil {
			s.firstErr = lg.firstErr
		}
		payload += lg.bytes
		merged = append(merged, lg.lat...)
	}
	calls := float64(s.attempted - s.failed)
	if calls == 0 {
		return s
	}
	slices.Sort(merged)
	s.samples = len(merged)
	s.tailPercentile = pickTail(len(merged))
	s.callsPerS = calls / elapsed.Seconds()
	s.goodputMBs = float64(payload) / 1e6 / elapsed.Seconds()
	s.latencyP50Us = quantile(merged, 0.5) / 1e3
	s.latencyTailUs = quantile(merged, s.tailPercentile) / 1e3
	s.cpuUsPerCall = float64(cpu.Nanoseconds()) / 1e3 / calls
	return s
}

// runRPC is the --trace 0 run of an RPC workload: set up spec.setups() times,
// then measure two callers with tracing off.
func runRPC(spec runSpec) (*result, error) {
	var env *rpcEnv
	var setups []float64
	base := poolOutstanding()
	for i := 0; i < spec.setups(); i++ {
		if env != nil {
			env.close()
		}
		var took time.Duration
		var err error
		if env, took, err = setupRPC(spec, callers, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	m := startHeapMeter()
	segs := make([]runSummary, 0, segmentsPerRun)
	var attempted, failed int64
	var firstErr error
	var wall time.Duration
	for len(segs) < segmentsPerRun {
		logs, elapsed, cpu := timedRun(env.call, callers, int(attempted), spec.dur/segmentsPerRun)
		s := summarize(logs, elapsed, cpu)
		attempted, failed, wall = attempted+s.attempted, failed+s.failed, wall+elapsed
		if firstErr == nil {
			firstErr = s.firstErr
		}
		segs = append(segs, s)
	}
	heapMB := m.finish()
	env.close()
	leaked := poolLeak(base)

	if attempted == failed {
		return nil, fmt.Errorf("no call succeeded: %v", firstErr)
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %d of %d calls failed, first: %v\n", failed, attempted, firstErr)
	}
	// pick is the run's value of one metric: its better-quartile segment.
	pick := func(metric func(*runSummary) float64, higherIsBetter bool) float64 {
		var vals []float64
		for i := range segs {
			if segs[i].attempted > segs[i].failed {
				vals = append(vals, metric(&segs[i]))
			}
		}
		return quietQuartile(vals, higherIsBetter)
	}
	r := newResult(endToEnd)
	r.Correct, r.Attempted, r.Failed = failed == 0 && leaked == 0, attempted, failed
	r.put("setup_s", median(setups))
	r.put("ops_per_s", pick(func(s *runSummary) float64 { return s.callsPerS }, true))
	r.put("latency_p50_us", pick(func(s *runSummary) float64 { return s.latencyP50Us }, false))
	r.put("latency_tail_us", pick(func(s *runSummary) float64 { return s.latencyTailUs }, false))
	r.put("cpu_us_per_op", pick(func(s *runSummary) float64 { return s.cpuUsPerCall }, false))
	r.put("peak_heap_mb", heapMB)
	r.note("goodput_mb_s", pick(func(s *runSummary) float64 { return s.goodputMBs }, true))
	r.note("whole_run_ops_per_s", float64(attempted-failed)/wall.Seconds())
	r.note("tail_percentile", pick(func(s *runSummary) float64 { return s.tailPercentile }, true))
	r.note("latency_samples_per_segment", pick(func(s *runSummary) float64 { return float64(s.samples) }, true))
	r.note("wire_pool_outstanding", float64(leaked))
	return r, nil
}

// quietQuartile picks a run's value from its per-segment (or per-round)
// values: the 75th percentile of a rate, the 25th of a latency or a cost. The
// box has neighbours, and what they do to a segment only ever slows it down.
// In a noisy half hour ten whole-run values of unary_small spread by 15%
// (calls/s and CPU per call) and 50% (p99), and the better-quartile segments
// of the same ten runs by 6%, 6% and 20%; the median segment did no better
// than the whole run (README.md has the table). A change to the stack moves
// every segment, the quiet ones included. What this cannot see is a stall
// that leaves a quarter of the segments untouched; the result file's notes
// keep the whole-run rate for that.
func quietQuartile(vals []float64, higherIsBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if higherIsBetter {
		return quantile(s, 0.75)
	}
	return quantile(s, 0.25)
}
