package core

import (
	"fmt"
	"strings"
	"time"

	"rpcscale/internal/monarch"
	"rpcscale/internal/stats"
	"rpcscale/internal/workload"
)

// ExoVariable names one of Table 2's exogenous variables.
type ExoVariable string

// The four exogenous variables of Table 2.
const (
	VarCPUUtil ExoVariable = "cpu-util"
	VarMemBW   ExoVariable = "mem-bw"
	VarWakeup  ExoVariable = "long-wakeup-rate"
	VarCPI     ExoVariable = "cycles-per-inst"
)

// ExoVariables lists all four.
func ExoVariables() []ExoVariable {
	return []ExoVariable{VarCPUUtil, VarMemBW, VarWakeup, VarCPI}
}

// ExoPanel is one (method, variable) panel of Fig. 17: bucketized
// exogenous value vs. mean near-P95 latency, plus the correlation.
type ExoPanel struct {
	Method   string
	Variable ExoVariable
	Centers  []float64       // bucket centers (variable units)
	MeanLat  []time.Duration // mean tail latency per bucket
	Pearson  float64
	Samples  int
}

// ExogenousAnalysis computes Fig. 17: for each requested method and each
// exogenous variable, the relationship between cluster state and RPC
// latency. Following the paper's methodology, only intra-cluster calls
// are considered (network noise excluded), samples are bucketized by the
// exogenous value, and the relationship is measured over the per-bucket
// mean latencies — which is exactly what Fig. 17 plots.
func (k *ReportSink) ExogenousAnalysis(methods []string) []ExoPanel {
	var panels []ExoPanel
	for _, method := range methods {
		obs := k.exo[method]
		if len(obs) < 100 {
			continue
		}
		for _, v := range ExoVariables() {
			var xs, ys []float64
			for _, o := range obs {
				if !o.Span.SameCluster() || o.Span.Err.IsError() {
					continue
				}
				xs = append(xs, exoValue(o, v))
				ys = append(ys, float64(o.Span.Breakdown.Total()))
			}
			centers, means := stats.Bucketize(xs, ys, 8)
			panel := ExoPanel{
				Method: method, Variable: v,
				Pearson: stats.Pearson(centers, means),
				Samples: len(xs),
			}
			for i := range centers {
				panel.Centers = append(panel.Centers, centers[i])
				panel.MeanLat = append(panel.MeanLat, time.Duration(int64(means[i])))
			}
			panels = append(panels, panel)
		}
	}
	return panels
}

func exoValue(o workload.ExoObservation, v ExoVariable) float64 {
	switch v {
	case VarCPUUtil:
		return o.Exo.CPUUtil
	case VarMemBW:
		return o.Exo.MemBW
	case VarWakeup:
		return o.Exo.LongWakeupRate
	case VarCPI:
		return o.Exo.CPI
	}
	return 0
}

// RenderExoPanels formats Fig. 17.
func RenderExoPanels(panels []ExoPanel) string {
	var b strings.Builder
	b.WriteString("Fig.17  Exogenous variables vs. tail latency\n")
	for _, p := range panels {
		fmt.Fprintf(&b, "  %-28s %-18s r=%+.2f  (%d tail samples)\n",
			p.Method, p.Variable, p.Pearson, p.Samples)
	}
	return b.String()
}

// DiurnalSeries is one cluster's Fig. 18 panel: 24 hours of windows with
// P95 latency and exogenous gauges, plus latency-vs-variable correlations.
type DiurnalSeries struct {
	Cluster string
	Times   []time.Time
	P95     []time.Duration
	Exo     map[ExoVariable][]float64
	// Correlation of P95 latency with each variable over the day.
	Correlation map[ExoVariable]float64
}

// DiurnalAnalysis reads one cluster's day from Monarch (written by
// workload.WriteDiurnalDay) and computes Fig. 18's co-movement.
func DiurnalAnalysis(db *monarch.DB, method, cluster string) (*DiurnalSeries, error) {
	sel := monarch.Labels{"method": method, "cluster": cluster}
	lat := db.Query(workload.MetricLatP95, sel, time.Time{}, time.Time{})
	if len(lat) == 0 {
		return nil, fmt.Errorf("core: no diurnal data for %s in %s", method, cluster)
	}
	res := &DiurnalSeries{
		Cluster:     cluster,
		Exo:         make(map[ExoVariable][]float64),
		Correlation: make(map[ExoVariable]float64),
	}
	var latVals []float64
	for _, p := range lat[0].Points {
		res.Times = append(res.Times, p.At)
		res.P95 = append(res.P95, time.Duration(int64(p.Value)))
		latVals = append(latVals, p.Value)
	}
	metricOf := map[ExoVariable]string{
		VarCPUUtil: workload.MetricCPUUtil,
		VarMemBW:   workload.MetricMemBW,
		VarWakeup:  workload.MetricWakeup,
		VarCPI:     workload.MetricCPI,
	}
	for v, metric := range metricOf {
		series := db.Query(metric, sel, time.Time{}, time.Time{})
		if len(series) == 0 {
			continue
		}
		var vals []float64
		for _, p := range series[0].Points {
			vals = append(vals, p.Value)
		}
		res.Exo[v] = vals
		if len(vals) == len(latVals) {
			res.Correlation[v] = stats.Pearson(vals, latVals)
		}
	}
	return res, nil
}

// Render formats one Fig. 18 panel.
func (r *DiurnalSeries) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.18  %s: 24h P95 latency vs exogenous state\n", r.Cluster)
	for _, v := range ExoVariables() {
		fmt.Fprintf(&b, "  corr(P95, %s) = %+.2f\n", v, r.Correlation[v])
	}
	step := len(r.P95) / 8
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(r.P95); i += step {
		fmt.Fprintf(&b, "  %s  P95 %v\n", r.Times[i].Format("15:04"), r.P95[i].Round(time.Microsecond))
	}
	return b.String()
}
