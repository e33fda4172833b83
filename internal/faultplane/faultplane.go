// Package faultplane is a deterministic, seed-driven fault-injection
// layer for the real RPC stack. It exists because the paper's error
// characterization (§7: canonical error-code mix, deadline-exceeded
// dominance, retry amplification under overload) cannot be reproduced
// from healthy traffic: the stack's retries, hedges, budgets, and
// breakers only reveal their economics when calls actually fail.
//
// An Injector is attached to a channel or server through
// stubby.Options.Faults and consulted once per attempt. Every decision
// is a pure function of (seed, scope, method, call sequence, attempt):
// two processes configured with the same seed make byte-identical
// decisions, independent of goroutine interleaving or wall-clock time,
// which is what lets `rpcbench -chaos` promise reproducible error-code
// distributions. "Time" for incident scheduling is therefore call
// progression — a window [From,To) covers calls whose sequence number
// falls in the range — not wall time, which would not replay.
//
// The fault vocabulary follows "Remote Procedure Call as a Managed
// System Service": the managed layer can reject (fail fast with a
// status), drop (swallow the message so the peer's deadline expires),
// delay (stall an attempt, saturating server workers in overload
// incidents), and corrupt (mangle payload bytes — the transport's AEAD
// turns on-wire corruption into connection death, so corruption is
// modeled at the payload boundary where application integrity checks
// catch it).
package faultplane

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// Scope distinguishes the two attachment points so a shared injector
// gives client- and server-side hooks independent decision streams.
type Scope uint8

// Injection scopes.
const (
	ScopeClient Scope = iota
	ScopeServer

	numScopes int = iota
)

func (s Scope) String() string {
	switch s {
	case ScopeClient:
		return "client"
	case ScopeServer:
		return "server"
	}
	return fmt.Sprintf("Scope(%d)", uint8(s))
}

// Rule is one set of per-method fault rates. Rates are probabilities in
// [0,1]; each action is rolled independently per attempt.
type Rule struct {
	// Methods selects the methods the rule applies to: "" or "*" match
	// everything, a trailing "*" is a prefix match, anything else is an
	// exact match.
	Methods string

	// RejectRate fails the attempt fast with RejectCode (default
	// Unavailable) — the signature of a server refusing work.
	RejectRate float64
	RejectCode trace.ErrorCode

	// DropRate swallows the attempt: the request (client scope) or the
	// response (server scope) never moves, so the caller's deadline
	// expires — the paper's dominant DeadlineExceeded class.
	DropRate float64

	// DelayRate stalls the attempt by Delay plus a uniform draw from
	// [0, DelayJitter). Server-side delays occupy a worker, which is how
	// overload incidents saturate the serving queue for real.
	DelayRate   float64
	Delay       time.Duration
	DelayJitter time.Duration

	// CorruptRate mangles payload bytes (see CorruptPayload).
	CorruptRate float64
}

// matches reports whether the rule selects method.
func (r *Rule) matches(method string) bool {
	switch {
	case r.Methods == "" || r.Methods == "*":
		return true
	case strings.HasSuffix(r.Methods, "*"):
		return strings.HasPrefix(method, strings.TrimSuffix(r.Methods, "*"))
	default:
		return r.Methods == method
	}
}

// Incident is a scheduled failure window: while a call's sequence number
// lies in [From, To), the incident's rules apply on top of the base
// rules. Windows are expressed in call progression, not wall time, so a
// schedule replays identically from the same seed (see package comment).
type Incident struct {
	Name     string
	From, To uint64
	Rules    []Rule
}

// active reports whether seq falls inside the incident window.
func (in *Incident) active(seq uint64) bool { return seq >= in.From && seq < in.To }

// Config assembles an injector.
type Config struct {
	// Seed drives every decision. Two injectors with equal Config make
	// identical decisions for identical (scope, method, seq, attempt).
	Seed uint64
	// Rules apply to every call.
	Rules []Rule
	// Incidents apply additionally inside their windows.
	Incidents []Incident
}

// Decision is what the stack does to one attempt. The zero value is
// "no fault".
type Decision struct {
	// Reject fails the attempt with this code; OK means no rejection.
	Reject trace.ErrorCode
	// Drop swallows the message so the peer's deadline expires.
	Drop bool
	// Delay stalls the attempt before it proceeds.
	Delay time.Duration
	// Corrupt mangles the payload before it proceeds.
	Corrupt bool
}

// Faulty reports whether the decision does anything.
func (d Decision) Faulty() bool {
	return d.Reject != trace.OK || d.Drop || d.Delay > 0 || d.Corrupt
}

// Key identifies one attempt for decision purposes. When Have is false
// (callers that did not thread a call ID through their context), the
// injector falls back to a per-(scope, method) sequence counter, which
// keeps single-threaded runs deterministic.
type Key struct {
	Seq     uint64 // logical call sequence number (deterministic when assigned by the driver)
	Have    bool
	Attempt uint32 // 0 = first attempt; retries increment, hedges set the high bit
}

// Stats counts decisions by action, per scope, for reports and tests.
type Stats struct {
	Decisions [2]uint64 // per scope: attempts consulted
	Rejects   [2]uint64
	Drops     [2]uint64
	Delays    [2]uint64
	Corrupts  [2]uint64
}

// Injector makes deterministic fault decisions. It is safe for
// concurrent use.
type Injector struct {
	cfg Config

	mu   sync.Mutex
	seqs map[seqKey]*atomic.Uint64

	decisions [numScopes]atomic.Uint64
	rejects   [numScopes]atomic.Uint64
	drops     [numScopes]atomic.Uint64
	delays    [numScopes]atomic.Uint64
	corrupts  [numScopes]atomic.Uint64
}

type seqKey struct {
	scope  Scope
	method string
}

// New returns an injector for the configuration.
func New(cfg Config) *Injector {
	for i := range cfg.Rules {
		if cfg.Rules[i].RejectCode == trace.OK {
			cfg.Rules[i].RejectCode = trace.Unavailable
		}
	}
	for i := range cfg.Incidents {
		for j := range cfg.Incidents[i].Rules {
			if cfg.Incidents[i].Rules[j].RejectCode == trace.OK {
				cfg.Incidents[i].Rules[j].RejectCode = trace.Unavailable
			}
		}
	}
	return &Injector{cfg: cfg, seqs: make(map[seqKey]*atomic.Uint64)}
}

// Decide returns the fault decision for one attempt. Decisions with a
// populated Key are pure: the same (scope, method, key) always yields
// the same decision regardless of call order.
func (inj *Injector) Decide(scope Scope, method string, key Key) Decision {
	if !key.Have {
		key.Seq = inj.nextSeq(scope, method)
	}
	inj.decisions[scope].Add(1)

	var d Decision
	roll := func(ruleIdx int, r *Rule) {
		if !r.matches(method) {
			return
		}
		rng := newDecisionRNG(inj.cfg.Seed, scope, method, key, ruleIdx)
		if d.Reject == trace.OK && rng.roll(actionReject, r.RejectRate) {
			d.Reject = r.RejectCode
		}
		if !d.Drop && rng.roll(actionDrop, r.DropRate) {
			d.Drop = true
		}
		if rng.roll(actionDelay, r.DelayRate) {
			delay := r.Delay
			if r.DelayJitter > 0 {
				delay += time.Duration(rng.draw(actionJitter) * float64(r.DelayJitter))
			}
			d.Delay += delay
		}
		if !d.Corrupt && rng.roll(actionCorrupt, r.CorruptRate) {
			d.Corrupt = true
		}
	}
	for i := range inj.cfg.Rules {
		roll(i, &inj.cfg.Rules[i])
	}
	for i := range inj.cfg.Incidents {
		in := &inj.cfg.Incidents[i]
		if !in.active(key.Seq) {
			continue
		}
		for j := range in.Rules {
			// Incident rules get their own index space so their draws do
			// not correlate with the base rules'.
			roll(1000+1000*i+j, &in.Rules[j])
		}
	}

	if d.Reject != trace.OK {
		// A rejected attempt never proceeds; the other actions are moot.
		d.Drop, d.Delay, d.Corrupt = false, 0, false
		inj.rejects[scope].Add(1)
	}
	if d.Drop {
		inj.drops[scope].Add(1)
	}
	if d.Delay > 0 {
		inj.delays[scope].Add(1)
	}
	if d.Corrupt {
		inj.corrupts[scope].Add(1)
	}
	return d
}

// nextSeq advances the fallback per-(scope, method) sequence.
func (inj *Injector) nextSeq(scope Scope, method string) uint64 {
	k := seqKey{scope, method}
	inj.mu.Lock()
	ctr := inj.seqs[k]
	if ctr == nil {
		ctr = new(atomic.Uint64)
		inj.seqs[k] = ctr
	}
	inj.mu.Unlock()
	return ctr.Add(1) - 1
}

// Stats snapshots the decision counters.
func (inj *Injector) Stats() Stats {
	var s Stats
	for sc := 0; sc < numScopes; sc++ {
		s.Decisions[sc] = inj.decisions[sc].Load()
		s.Rejects[sc] = inj.rejects[sc].Load()
		s.Drops[sc] = inj.drops[sc].Load()
		s.Delays[sc] = inj.delays[sc].Load()
		s.Corrupts[sc] = inj.corrupts[sc].Load()
	}
	return s
}

// CorruptPayload deterministically mangles p in place: a handful of
// bytes spread across the payload are XORed with a fixed mask, so an
// application-level integrity check (as in rpcbench's chaos handler)
// reliably detects the damage while the envelope still parses.
func CorruptPayload(p []byte) {
	if len(p) == 0 {
		return
	}
	for _, at := range [...]int{0, len(p) / 3, 2 * len(p) / 3, len(p) - 1} {
		p[at] ^= 0xA5
	}
}

// --- deterministic randomness ---

// Action tags separate the random draws of one attempt so the rates of
// different fault types never correlate.
const (
	actionReject = iota
	actionDrop
	actionDelay
	actionJitter
	actionCorrupt
)

// decisionRNG derives independent uniform draws for one (attempt, rule)
// pair via SplitMix64 over a hashed state.
type decisionRNG struct{ state uint64 }

func newDecisionRNG(seed uint64, scope Scope, method string, key Key, ruleIdx int) decisionRNG {
	h := seed
	h = mix(h ^ (uint64(scope) + 1))
	h = mix(h ^ hashString(method))
	h = mix(h ^ key.Seq)
	h = mix(h ^ uint64(key.Attempt))
	h = mix(h ^ uint64(ruleIdx))
	return decisionRNG{state: h}
}

// draw returns a uniform float in [0,1) for the action tag.
func (r decisionRNG) draw(action int) float64 {
	s := r.state ^ (uint64(action+1) * 0x9e3779b97f4a7c15)
	return float64(mix(s)>>11) / float64(1<<53)
}

// roll reports whether the action fires at the given rate.
func (r decisionRNG) roll(action int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return r.draw(action) < rate
}

// mix is one SplitMix64 step: the golden-ratio increment, then the
// finalizer.
func mix(z uint64) uint64 { return stats.Mix64(z + 0x9e3779b97f4a7c15) }

// hashString is FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
