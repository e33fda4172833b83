package core

import (
	"strings"
	"testing"

	"rpcscale/internal/workload"
)

func TestOffloadCoverage(t *testing.T) {
	res := testSink.OffloadCoverage()
	// §2.5: a single-MTU offload accelerates the majority of messages...
	if res.MessageCoverage < 0.5 {
		t.Errorf("message coverage = %.3f, want majority", res.MessageCoverage)
	}
	// ...but misses the byte tail: byte coverage well below message
	// coverage.
	if res.ByteCoverage >= res.MessageCoverage {
		t.Errorf("byte coverage %.3f >= message coverage %.3f; tail should escape",
			res.ByteCoverage, res.MessageCoverage)
	}
	if res.MessageCoverage < res.CallCoverage {
		t.Error("message coverage must be >= both-directions coverage")
	}
	if !strings.Contains(res.Render(), "Offload") {
		t.Error("render broken")
	}
	if res.MTU != 1500 {
		t.Errorf("MTU = %d, want the report's 1500", res.MTU)
	}
}

func TestOptimizationCoverage(t *testing.T) {
	res := testSink.OptimizationCoverage()
	if len(res.Ks) != 4 {
		t.Fatalf("Ks = %v", res.Ks)
	}
	// Coverage is monotone in K and matches the popularity anchors.
	for i := 1; i < len(res.CallCoverage); i++ {
		if res.CallCoverage[i] < res.CallCoverage[i-1] {
			t.Fatal("call coverage not monotone")
		}
		if res.TimeCoverage[i] < res.TimeCoverage[i-1] {
			t.Fatal("time coverage not monotone")
		}
	}
	// top-10 ~58%, top-100 ~91% (§2.3 / §5.2).
	if res.CallCoverage[1] < 0.5 || res.CallCoverage[1] > 0.68 {
		t.Errorf("top-10 coverage = %.3f, want ~0.58", res.CallCoverage[1])
	}
	if res.CallCoverage[2] < 0.83 {
		t.Errorf("top-100 coverage = %.3f, want ~0.91", res.CallCoverage[2])
	}
	// Time coverage of the popular head is far below its call coverage
	// (the slow tail owns the time).
	if res.TimeCoverage[1] >= res.CallCoverage[1] {
		t.Errorf("top-10 time %.3f >= calls %.3f; slow tail should own time",
			res.TimeCoverage[1], res.CallCoverage[1])
	}
	_ = res.Render()
}

// An empty sink (a run whose every span was sampled out) covers nothing:
// the table reads 0 %, not NaN.
func TestOptimizationCoverageEmpty(t *testing.T) {
	res := NewReportSink().OptimizationCoverage()
	for i := range res.Ks {
		if res.CallCoverage[i] != 0 || res.TimeCoverage[i] != 0 {
			t.Errorf("top-%d coverage = %v calls, %v time; want 0", res.Ks[i], res.CallCoverage[i], res.TimeCoverage[i])
		}
	}
	if strings.Contains(res.Render(), "NaN") {
		t.Errorf("empty coverage renders NaN:\n%s", res.Render())
	}
}

func TestColocationStudy(t *testing.T) {
	res := ColocationStudy(func() *workload.Generator {
		return workload.NewGenerator(testCat, testTopo, nil, 77)
	}, 150)
	if res.Trees != 150 {
		t.Fatalf("trees = %d", res.Trees)
	}
	// Co-location must reduce the nested cross-cluster rate...
	if res.CrossRateWith >= res.CrossRateWithout {
		t.Errorf("co-location did not reduce cross rate: %.3f vs %.3f",
			res.CrossRateWith, res.CrossRateWithout)
	}
	// ...and with it the root latency (P50 at least directionally).
	if res.WithP50 > res.WithoutP50*3/2 {
		t.Errorf("co-located P50 %v much worse than scattered %v", res.WithP50, res.WithoutP50)
	}
	if !strings.Contains(res.Render(), "Co-location") {
		t.Error("render broken")
	}
}

func TestRenderHeatmap(t *testing.T) {
	lat := testSink.LatencyByMethod()
	out := lat.RenderHeatmap(48)
	if !strings.Contains(out, "Heatmap") {
		t.Fatal("missing header")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 16 {
		t.Fatalf("heatmap too short: %d lines", len(lines))
	}
	// Columns bounded by pipes of the requested width.
	for _, l := range lines {
		if i := strings.IndexByte(l, '|'); i >= 0 && strings.HasSuffix(l, "|") {
			if got := len(l) - i - 2; got != 48 {
				t.Fatalf("row width %d, want 48: %q", got, l)
			}
		}
	}
	// Degenerate inputs do not panic.
	empty := &PerMethodResult{What: "x", Unit: "ns"}
	if !strings.Contains(empty.RenderHeatmap(10), "no methods") {
		t.Error("empty heatmap mishandled")
	}
}

// TestFullReport renders the whole figure-by-figure report from the shared
// sink, with and without the optional sections.
func TestFullReport(t *testing.T) {
	gen := workload.NewGenerator(testCat, testTopo, nil, 88)
	out := ReportFromSink(testSink, testProf, ReportOptions{Generator: gen})
	for _, want := range []string{
		"Fig.2 anchors", "Fig.3", "Fig.4/5", "Fig.8", "Table 1",
		"Fig.10", "Fig.11", "Fig.12", "Fig.14", "Fig.15", "Fig.16",
		"Fig.17", "Fig.19", "Fig.20", "Fig.23", "Heatmap",
		"Offload coverage", "optimization coverage", "Co-location",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Without a generator or DB, the optional sections are skipped but
	// the report still renders.
	out2 := ReportFromSink(testSink, testProf, ReportOptions{})
	if strings.Contains(out2, "Fig.19") {
		t.Error("Fig.19 should require a generator")
	}
	if !strings.Contains(out2, "Fig.20") {
		t.Error("core sections missing without generator")
	}
}
