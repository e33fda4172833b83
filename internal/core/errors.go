package core

import (
	"fmt"
	"sort"
	"strings"

	"rpcscale/internal/trace"
)

// ErrorRow is one error type's slice of Fig. 23.
type ErrorRow struct {
	Code       trace.ErrorCode
	CountShare float64 // share of all errors
	CycleShare float64 // share of wasted cycles
}

// ErrorResult is Fig. 23 plus §4.4's headline rate.
type ErrorResult struct {
	ErrorRate float64 // errors / all calls (paper: 0.019)
	Rows      []ErrorRow
	// HedgeCancelShare is the fraction of cancellations carrying the
	// hedged flag, supporting the paper's hedging hypothesis.
	HedgeCancelShare float64
}

// ErrorAnalysis computes Fig. 23 from the per-code counters accumulated
// over the volume mix.
func (k *ReportSink) ErrorAnalysis() *ErrorResult {
	res := &ErrorResult{}
	if k.errCalls > 0 {
		res.ErrorRate = float64(k.errErrs) / float64(k.errCalls)
	}
	for code := trace.ErrorCode(0); int(code) < trace.NumErrorCodes; code++ {
		n := k.errCounts[code]
		if n == 0 {
			continue
		}
		row := ErrorRow{Code: code, CountShare: float64(n) / float64(k.errErrs)}
		if k.wastedCycles > 0 {
			row.CycleShare = k.errCycles[code] / k.wastedCycles
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].CountShare != res.Rows[j].CountShare {
			return res.Rows[i].CountShare > res.Rows[j].CountShare
		}
		return res.Rows[i].Code < res.Rows[j].Code
	})
	if k.cancels > 0 {
		res.HedgeCancelShare = float64(k.hedgedCancels) / float64(k.cancels)
	}
	return res
}

// Row returns the entry for one code (zero row if absent).
func (r *ErrorResult) Row(code trace.ErrorCode) ErrorRow {
	for _, row := range r.Rows {
		if row.Code == code {
			return row
		}
	}
	return ErrorRow{Code: code}
}

// Render formats Fig. 23.
func (r *ErrorResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.23  RPC errors: %.2f%% of all calls fail; hedged share of cancellations %.0f%%\n",
		r.ErrorRate*100, r.HedgeCancelShare*100)
	fmt.Fprintf(&b, "  %-18s %10s %10s\n", "type", "count", "cycles")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %9.1f%% %9.1f%%\n", row.Code, row.CountShare*100, row.CycleShare*100)
	}
	return b.String()
}
