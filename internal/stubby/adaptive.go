package stubby

import (
	"math"

	"rpcscale/internal/compressor"
)

// Adaptive per-method compression (DESIGN.md §16). The paper's Fig. 20
// puts compression at 3.1% of all fleet cycles — the largest single RPC
// tax component — and for incompressible payloads (media, ciphertext,
// already-compressed blobs) every one of those cycles is pure waste. The
// gate makes a per-method decision from live telemetry: an entropy probe
// on the first bytes catches obviously incompressible payloads before
// the first compression attempt, and a windowed observed-ratio estimator
// (EWMA of out/in) turns methods whose payloads repeatedly fail to
// shrink off, with a periodic forced reprobe so a method whose payload
// mix changes can win compression back.
const (
	// entropyProbeBytes is how many leading payload bytes the entropy
	// probe samples.
	entropyProbeBytes = 512
	// entropySkipBits is the Shannon-entropy threshold (bits/byte) above
	// which a payload is judged incompressible outright. A 512-byte
	// sample of uniform random data measures ~7.55 bits/byte (sampling
	// bias caps it below 8); natural text and structured encodings sit
	// well under 6.
	entropySkipBits = 7.0
	// ratioScale is the fixed-point scale of the EWMA ratio estimator.
	ratioScale = 1024
	// skipRatio is the estimator value (out/in, scaled) above which a
	// method stops compressing: past ~0.92 the byte savings no longer
	// buy back the cycles. It was priced against a compressor several
	// times dearer than today's, and stands as the conservative side of
	// that trade (DESIGN.md §16, "The adaptive gate's threshold").
	skipRatio = 940
	// gateMinTrials is how many observed compressions a method needs
	// before the estimator may turn it off.
	gateMinTrials = 4
	// gateReprobeEvery forces one real compression per this many skips,
	// so the estimator keeps tracking a method's live payload mix.
	gateReprobeEvery = 64
)

// methodComp is the per-method estimator state.
type methodComp struct {
	trials uint32 // compressions observed
	ewma   uint32 // out/in ratio, 1/ratioScale fixed point
	skips  uint32 // consecutive ratio-skips since the last reprobe
}

// compressGate decides, per method, whether configured compression is
// worth attempting. It is NOT safe for concurrent use: each connection
// has its own gate, used only by whoever holds that connection's send
// turn (sendTurn), so decisions take no lock of their own on the hot
// path. A nil gate compresses everything (the non-adaptive default).
type compressGate struct {
	obs   Observer
	stats *compressor.Stats
	m     map[string]*methodComp
}

// newCompressGate returns a gate, or nil when adaptive compression is
// off (and the stack behaves exactly as before).
func newCompressGate(enabled bool, obs Observer, stats *compressor.Stats) *compressGate {
	if !enabled {
		return nil
	}
	return &compressGate{obs: obs, stats: stats, m: make(map[string]*methodComp)}
}

// shouldCompress reports whether this payload is worth compressing. A
// false return has already been recorded as a skip.
func (g *compressGate) shouldCompress(method string, payload []byte) bool {
	if g == nil {
		return true
	}
	mc := g.m[method]
	if mc == nil {
		mc = &methodComp{}
		g.m[method] = mc
	}
	if mc.trials >= gateMinTrials && mc.ewma > skipRatio {
		if mc.skips++; mc.skips < gateReprobeEvery {
			g.recordSkip(method, len(payload))
			return false
		}
		mc.skips = 0 // forced reprobe: compress this one and re-measure
		return true
	}
	if entropyIncompressible(payload) {
		g.recordSkip(method, len(payload))
		return false
	}
	return true
}

// observe feeds one compression outcome into the method's estimator.
func (g *compressGate) observe(method string, inLen, outLen int) {
	if g == nil || inLen <= 0 {
		return
	}
	mc := g.m[method] // non-nil: shouldCompress ran first
	r := uint64(outLen) * ratioScale / uint64(inLen)
	if r > 4*ratioScale {
		r = 4 * ratioScale // expansion; clamp so one outlier cannot wedge the EWMA
	}
	if mc.trials == 0 {
		mc.ewma = uint32(r)
	} else {
		mc.ewma = (3*mc.ewma + uint32(r)) / 4
	}
	if mc.trials < math.MaxUint32 {
		mc.trials++
	}
}

// recordSkip accounts one skipped payload in the shared compressor stats
// (reaching telemetry's cpu_by_cat attribution for free) and the data
// plane observer.
func (g *compressGate) recordSkip(method string, n int) {
	if g.stats != nil {
		g.stats.Skips.Add(1)
		g.stats.SkippedBytes.Add(uint64(n))
	}
	if g.obs != nil {
		g.obs.CompressSkipped(method, n)
	}
}

// entropyIncompressible estimates the Shannon entropy of the payload's
// first bytes and reports whether it is too close to random to compress.
func entropyIncompressible(p []byte) bool {
	if len(p) > entropyProbeBytes {
		p = p[:entropyProbeBytes]
	}
	var hist [256]uint16
	for _, b := range p {
		hist[b]++
	}
	n := float64(len(p))
	var h float64
	for _, c := range hist {
		if c == 0 {
			continue
		}
		pr := float64(c) / n
		h -= pr * math.Log2(pr)
	}
	return h > entropySkipBits
}
