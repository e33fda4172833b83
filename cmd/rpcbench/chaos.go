package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"time"

	"rpcscale/internal/faultplane"
	"rpcscale/internal/stubby"
	"rpcscale/internal/trace"
)

// Chaos mode drives the stack through a deterministic fault schedule and
// renders the paper's error-code distribution (§4, Fig. 14) plus a retry
// amplification table from live loopback traffic. Every fault decision is
// a pure function of (seed, call ID, attempt), so two runs with the same
// seed produce byte-identical reports: the error-code mix is an output of
// the schedule, not of scheduling noise.
//
// Faults are injected at the client scope only. Server-scope injection
// works (and is unit-tested), but server-side delays occupy workers and
// would couple one call's outcome to its queue neighbors — exactly the
// timing dependence chaos mode is designed to exclude.

// chaosConfig parameterizes one chaos run.
type chaosConfig struct {
	Seed     uint64
	Calls    int
	Conc     int
	Payload  int // bytes; floor 16 (8-byte checksum + body)
	Budget   bool
	Deadline time.Duration
}

// The fault schedule: a low-grade base fault floor, plus an "incident"
// over the middle third of the call sequence. The incident's reject storm
// is what the retry budget is for; its delays exceed the deadline so the
// outcome (DeadlineExceeded) is deterministic rather than racing the
// clock.
const (
	chaosBaseReject  = 0.02
	chaosBaseDrop    = 0.005
	chaosBaseDelayP  = 0.02
	chaosBaseDelay   = 2 * time.Millisecond
	chaosBaseCorrupt = 0.01

	chaosIncReject = 0.60
	chaosIncDelayP = 0.10
	chaosIncDelay  = 150 * time.Millisecond
)

const chaosMethod = "chaos.Target/Call"

// Phases of the call sequence, for the amplification table.
const (
	phaseBaseline = iota
	phaseIncident
	phaseRecovery
	numPhases
)

var phaseNames = [numPhases]string{"baseline", "incident", "recovery"}

// chaosSchedule builds the injector config for a run.
func chaosSchedule(seed uint64, calls int) faultplane.Config {
	return faultplane.Config{
		Seed: seed,
		Rules: []faultplane.Rule{{
			Methods:     chaosMethod,
			RejectRate:  chaosBaseReject,
			RejectCode:  trace.Unavailable,
			DropRate:    chaosBaseDrop,
			DelayRate:   chaosBaseDelayP,
			Delay:       chaosBaseDelay,
			CorruptRate: chaosBaseCorrupt,
		}},
		Incidents: []faultplane.Incident{{
			Name: "overload",
			From: uint64(calls / 3),
			To:   uint64(2 * calls / 3),
			Rules: []faultplane.Rule{{
				Methods:    chaosMethod,
				RejectRate: chaosIncReject,
				RejectCode: trace.Unavailable,
				DelayRate:  chaosIncDelayP,
				Delay:      chaosIncDelay,
			}},
		}},
	}
}

// chaosObserver counts retries for one worker. Retry callbacks run
// synchronously on the worker's goroutine, so plain ints suffice.
type chaosObserver struct {
	stubby.NopObserver
	retries    uint64
	suppressed uint64
}

func (o *chaosObserver) RetryAttempt(string)    { o.retries++ }
func (o *chaosObserver) RetrySuppressed(string) { o.suppressed++ }

// workerTally accumulates one worker's deterministic outcome counts.
type workerTally struct {
	calls      [numPhases]uint64
	attempts   [numPhases]uint64
	suppressed [numPhases]uint64
	byCode     [numPhases][trace.NumErrorCodes]uint64
}

// chaosPayload builds a payload whose first 8 bytes checksum the rest, so
// the handler detects injected corruption at the application boundary
// (the transport's AEAD makes wire-level corruption connection-fatal,
// which is why the fault plane mangles payloads instead).
func chaosPayload(size int) []byte {
	if size < 16 {
		size = 16
	}
	p := make([]byte, size)
	for i := 8; i < size; i++ {
		p[i] = byte(i)
	}
	h := fnv.New64a()
	h.Write(p[8:])
	binary.BigEndian.PutUint64(p[:8], h.Sum64())
	return p
}

func chaosIntact(p []byte) bool {
	if len(p) < 16 {
		return false
	}
	h := fnv.New64a()
	h.Write(p[8:])
	return binary.BigEndian.Uint64(p[:8]) == h.Sum64()
}

// chaosResult is one run's outcome: the deterministic report plus the
// raw tallies and wall-clock timing (the latter is NOT deterministic and
// stays out of the report).
type chaosResult struct {
	Report  string
	Elapsed time.Duration
	Tally   workerTally // merged across workers
}

// Amplification returns attempts per logical call for one phase, or for
// the whole run when phase < 0.
func (r *chaosResult) Amplification(phase int) float64 {
	var calls, attempts uint64
	for ph := 0; ph < numPhases; ph++ {
		if phase >= 0 && ph != phase {
			continue
		}
		calls += r.Tally.calls[ph]
		attempts += r.Tally.attempts[ph]
	}
	if calls == 0 {
		return 0
	}
	return float64(attempts) / float64(calls)
}

// runChaos executes the chaos scenario. The report is deterministic:
// same config (and, when Conc > 1, Budget off) => identical string.
func runChaos(cfg chaosConfig) (*chaosResult, error) {
	if cfg.Deadline <= 0 {
		cfg.Deadline = 40 * time.Millisecond
	}
	per := cfg.Calls / cfg.Conc
	total := per * cfg.Conc // drive a whole number of calls per worker

	inj := faultplane.New(chaosSchedule(cfg.Seed, total))

	srv := stubby.NewServer(stubby.Options{})
	srv.Register(chaosMethod, func(ctx context.Context, p []byte) ([]byte, error) {
		if !chaosIntact(p) {
			return nil, &stubby.Status{Code: trace.InvalidArgument, Message: "payload integrity check failed"}
		}
		return p, nil
	})
	l, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		return nil, lerr
	}
	go srv.Serve(l)
	defer srv.Close()

	// One budget shared across workers, as a pool would share it: the
	// amplification cap covers the aggregate stream.
	var budget *stubby.RetryBudget
	if cfg.Budget {
		budget = stubby.NewRetryBudget(10, 0.1)
	}

	payload := chaosPayload(cfg.Payload)
	phaseOf := func(id uint64) int {
		switch {
		case id < uint64(total/3):
			return phaseBaseline
		case id < uint64(2*total/3):
			return phaseIncident
		default:
			return phaseRecovery
		}
	}

	tallies := make([]workerTally, cfg.Conc)
	errs := make(chan error, cfg.Conc)
	start := time.Now()
	for w := 0; w < cfg.Conc; w++ {
		go func(w int) {
			obs := &chaosObserver{}
			policy := stubby.DefaultRetryPolicy()
			policy.MaxAttempts = 4
			policy.BaseBackoff = time.Millisecond
			policy.MaxBackoff = 8 * time.Millisecond
			policy.Budget = budget
			ch, derr := stubby.Dial(l.Addr().String(), "chaos", stubby.Options{
				Faults:   inj,
				Retry:    &policy,
				Observer: obs,
			})
			if derr != nil {
				errs <- derr
				return
			}
			defer ch.Close()
			t := &tallies[w]
			for i := 0; i < per; i++ {
				id := uint64(w*per + i)
				ph := phaseOf(id)
				beforeRetries, beforeSupp := obs.retries, obs.suppressed
				ctx, cancel := context.WithTimeout(
					stubby.ContextWithCallID(context.Background(), id), cfg.Deadline)
				_, cerr := ch.Call(ctx, chaosMethod, payload)
				cancel()
				code := trace.OK
				if cerr != nil {
					code = stubby.Code(cerr)
				}
				t.calls[ph]++
				t.attempts[ph] += 1 + (obs.retries - beforeRetries)
				t.suppressed[ph] += obs.suppressed - beforeSupp
				if int(code) < trace.NumErrorCodes {
					t.byCode[ph][code]++
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < cfg.Conc; w++ {
		if werr := <-errs; werr != nil {
			return nil, werr
		}
	}
	elapsed := time.Since(start)

	// Merge per-worker tallies; the sums are interleaving-independent.
	var merged workerTally
	for i := range tallies {
		for ph := 0; ph < numPhases; ph++ {
			merged.calls[ph] += tallies[i].calls[ph]
			merged.attempts[ph] += tallies[i].attempts[ph]
			merged.suppressed[ph] += tallies[i].suppressed[ph]
			for c := 0; c < trace.NumErrorCodes; c++ {
				merged.byCode[ph][c] += tallies[i].byCode[ph][c]
			}
		}
	}

	return &chaosResult{
		Report:  chaosReport(cfg, total, inj, &merged, budget),
		Elapsed: elapsed,
		Tally:   merged,
	}, nil
}

// chaosReport renders the deterministic section.
func chaosReport(cfg chaosConfig, total int, inj *faultplane.Injector, m *workerTally, budget *stubby.RetryBudget) string {
	var b strings.Builder
	budgetLabel := "off"
	if budget != nil {
		budgetLabel = fmt.Sprintf("on (cap %.2f)", budget.Cap())
	}
	fmt.Fprintf(&b, "rpcbench chaos: seed %d, %d calls, %d workers, deadline %v, retry budget %s\n",
		cfg.Seed, total, cfg.Conc, cfg.Deadline, budgetLabel)
	fmt.Fprintf(&b, "  schedule: base reject %.1f%% drop %.1f%% delay %v@%.0f%% corrupt %.0f%%\n",
		100*chaosBaseReject, 100*chaosBaseDrop, chaosBaseDelay, 100*chaosBaseDelayP, 100*chaosBaseCorrupt)
	fmt.Fprintf(&b, "  incident \"overload\" over calls [%d,%d): reject %.0f%%, delay %v@%.0f%%\n\n",
		total/3, 2*total/3, 100*chaosIncReject, chaosIncDelay, 100*chaosIncDelayP)

	// Error-code distribution per phase — the live Fig. 14 counterpart.
	fmt.Fprintf(&b, "  %-18s %9s %9s %9s %9s %7s\n",
		"outcome", "baseline", "incident", "recovery", "total", "share")
	var grand uint64
	for ph := 0; ph < numPhases; ph++ {
		grand += m.calls[ph]
	}
	for c := 0; c < trace.NumErrorCodes; c++ {
		var row [numPhases]uint64
		var sum uint64
		for ph := 0; ph < numPhases; ph++ {
			row[ph] = m.byCode[ph][c]
			sum += row[ph]
		}
		if sum == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-18s %9d %9d %9d %9d %6.2f%%\n",
			trace.ErrorCode(c).String(), row[phaseBaseline], row[phaseIncident],
			row[phaseRecovery], sum, 100*float64(sum)/float64(grand))
	}

	// Retry amplification: attempts per logical call, per phase. With the
	// budget on, the overall figure stays under the configured cap; with
	// it off, the incident's reject storm multiplies traffic unchecked.
	fmt.Fprintf(&b, "\n  %-10s %9s %9s %12s %14s\n",
		"phase", "calls", "attempts", "suppressed", "amplification")
	var calls, attempts, suppressed uint64
	for ph := 0; ph < numPhases; ph++ {
		calls += m.calls[ph]
		attempts += m.attempts[ph]
		suppressed += m.suppressed[ph]
		amp := 0.0
		if m.calls[ph] > 0 {
			amp = float64(m.attempts[ph]) / float64(m.calls[ph])
		}
		fmt.Fprintf(&b, "  %-10s %9d %9d %12d %14.3f\n",
			phaseNames[ph], m.calls[ph], m.attempts[ph], m.suppressed[ph], amp)
	}
	overall := 0.0
	if calls > 0 {
		overall = float64(attempts) / float64(calls)
	}
	fmt.Fprintf(&b, "  %-10s %9d %9d %12d %14.3f\n", "overall", calls, attempts, suppressed, overall)

	st := inj.Stats()
	fmt.Fprintf(&b, "\n  injector (client scope): %d decisions, %d rejects, %d drops, %d delays, %d corrupts\n",
		st.Decisions[faultplane.ScopeClient], st.Rejects[faultplane.ScopeClient],
		st.Drops[faultplane.ScopeClient], st.Delays[faultplane.ScopeClient],
		st.Corrupts[faultplane.ScopeClient])
	return b.String()
}
