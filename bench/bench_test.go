package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75},
		{39, 0.75}, {3, 0.75}, // too few for any: the upper quartile is the fallback
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got := spread(xs); got < 0.99999 || got > 1.00001 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
	if got, want := spread([]float64{13, 10, 11}), 3.0/11; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("spread(10,11,13) = %v, want %v", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},    // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120},   // clipped to the parent
		{Name: "deep", Parent: 2, Start: 25, End: 45}, // a grandchild: only b's business
		{Name: "outside", Parent: 0, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 20, 30, 20, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range []string{"unary_small", "bulk_download", "fleet_mix"} {
		a, err := genInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(w, 7)
		c, _ := genInputs(w, 8)
		same := func(x, y *rpcInputs) bool {
			if len(x.ops) != len(y.ops) {
				return false
			}
			for i := range x.ops {
				p, q := &x.ops[i], &y.ops[i]
				if p.method != q.method || !bytes.Equal(p.req, q.req) || !bytes.Equal(p.want, q.want) || p.wantSum != q.wantSum {
					return false
				}
			}
			return true
		}
		if !same(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w)
		}
	}
}

func TestCheckReplyRejectsCorruption(t *testing.T) {
	in, err := genInputs("unary_small", 1)
	if err != nil {
		t.Fatal(err)
	}
	o := &in.ops[0]
	good := append([]byte(nil), o.want...)
	if err := checkReply(good, o, 1); err != nil {
		t.Fatalf("intact echo rejected: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 1
	if checkReply(bad, o, 1) == nil {
		t.Error("echo with a flipped bit accepted")
	}
	if checkReply(good[:len(good)-1], o, 1) == nil {
		t.Error("truncated echo accepted")
	}

	// A large reply: the edges are checked on every call, the middle on
	// every fullCheckEvery-th.
	big := &op{want: bytes.Repeat([]byte{0xA5}, bulkResponse)}
	big.wantSum = edgeSum(big.want)
	mid := append([]byte(nil), big.want...)
	mid[len(mid)/2] ^= 1
	if checkReply(mid, big, fullCheckEvery) == nil {
		t.Error("corrupt middle accepted on a fully compared call")
	}
	edge := append([]byte(nil), big.want...)
	edge[len(edge)-3] ^= 1
	if checkReply(edge, big, 1) == nil {
		t.Error("corrupt edge accepted")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTablesFitTheContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadNames {
		name(w)
		why := workloadWhy[w]
		if why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why is %d characters", w, len(why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v does not fit the contract", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("per-layer metric %+v does not fit the contract", d)
		}
		if !strings.Contains(d.Name, ".") {
			t.Errorf("per-layer metric %s does not carry its layer as prefix", d.Name)
		}
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var disk struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(onDisk, &disk); err != nil {
		t.Fatal(err)
	}
	want, err := contract(disk.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `bench -contract -seconds %d`; regenerate it", disk.RunSeconds)
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(onDisk))
	}
}

// TestSmoke is -workload all at test size: every workload twice with tracing
// off and once traced, at the quick sizes, the runs in this process. It checks
// that each result is correct and carries every metric BENCHMARK.json names
// for its mode, and that result.json holds what -compare needs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	spec := runSpec{seed: 1, dur: 200 * time.Millisecond, quick: true}
	// Not parallel: wire's pool counters are process-wide.
	run := func(w string, seed uint64, traced bool) (*result, error) {
		spec := spec
		spec.workload, spec.seed = w, seed
		res, err := runOne(spec, traced, out)
		if err != nil {
			return nil, err
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s traced=%v: metric %s missing or in unit %q", w, traced, d.Name, m.Unit)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.Name, m.Value)
			}
		}
		return res, nil
	}
	if err := runAll(out, spec, 2, run); err != nil {
		t.Fatal(err)
	}
	all, err := readAll(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The bypass predictions.
	zero := map[string][]string{
		"unary_small":       {"compressor.calls_per_call", "compressor.compress_ns", "telemetry.spans_seen", "telemetry.codec_jobs", "workload.spans"},
		"bulk_download":     {"compressor.calls_per_call", "telemetry.spans_seen", "workload.spans"},
		"fleet_mix":         {"workload.spans", "core.merge_ms"},
		"analysis_pipeline": {"rawsock.tcp_rtt_us", "wire.pool_gets_per_call", "secure.seals_per_call", "stubby.call_p50_us"},
	}
	for _, w := range workloadNames {
		runs := all.Workloads[w]
		for _, d := range endToEnd {
			if n := len(runs.EndToEnd[d.Name]); n != 2 {
				t.Errorf("%s: %d values of %s in result.json, want 2", w, n, d.Name)
			}
		}
		for _, n := range append(zero[w], "wire.pool_outstanding") {
			if v := runs.PerLayer[n]; v != 0 {
				t.Errorf("%s = %v on %s, want 0", n, v, w)
			}
		}
		if _, err := os.Stat(filepath.Join(out, w+".trace.jsonl")); err != nil {
			t.Errorf("no trace file: %v", err)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worseBy, spread, bound float64
		want                   string
	}{
		{0.05, 0.02, 0.10, "ok"},
		{-0.30, 0.02, 0.10, "ok"}, // better, by any margin
		{0.11, 0.02, 0.10, "worse"},
		{0.11, 0.12, 0.10, "unresolved"},
		{0.01, 0.12, 0.10, "unresolved"},
	} {
		if got := verdict(c.worseBy, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.worseBy, c.spread, c.bound, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(opsPerS float64, failed int64) *allResult {
		a := &allResult{Workloads: map[string]*workloadRuns{}}
		for _, w := range workloadNames {
			r := &workloadRuns{EndToEnd: map[string][]float64{}, Attempted: 1000, Failed: failed}
			for _, d := range endToEnd {
				r.EndToEnd[d.Name] = []float64{100, 101, 99, 100}
			}
			r.EndToEnd["ops_per_s"] = []float64{opsPerS, opsPerS * 1.01, opsPerS * 0.99, opsPerS}
			a.Workloads[w] = r
		}
		return a
	}
	dir := t.TempDir()
	write := func(name string, a *allResult) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, a); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk(1000, 0))
	for _, c := range []struct {
		name   string
		change *allResult
		worse  bool
	}{
		{"same", mk(1000, 0), false},
		{"faster", mk(1500, 0), false},
		{"slower", mk(700, 0), true}, // 30% is past every bound
		{"failing", mk(1000, 3), true},
	} {
		var buf bytes.Buffer
		worse, err := compareFiles(&buf, base, write(c.name+".json", c.change))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.worse, buf.String())
		}
	}
	// A single run per side has no spread, so no timed row can be called ok.
	single := mk(1000, 0)
	for _, r := range single.Workloads {
		for name, vals := range r.EndToEnd {
			r.EndToEnd[name] = vals[:1]
		}
	}
	var buf bytes.Buffer
	if worse, err := compareFiles(&buf, base, write("single.json", single)); err != nil || worse {
		t.Errorf("single-run file: worse = %v, err = %v", worse, err)
	}
	// Only the failed_share rows, which need no spread, may say ok.
	if strings.Count(buf.String(), " ok\n") != len(workloadNames) || strings.Count(buf.String(), "unresolved") != len(workloadNames)*len(endToEnd) {
		t.Errorf("single-run file was not unresolved on every metric:\n%s", buf.String())
	}

	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(raw)), "\"claim\": null\n}") {
		t.Errorf("result file does not end with a null claim:\n%s", raw[max(0, len(raw)-80):])
	}
}
