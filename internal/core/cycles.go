package core

import (
	"fmt"
	"strings"

	"rpcscale/internal/gwp"
)

// CycleTaxResult is Fig. 20: the fleet's RPC cycle tax and its category
// breakdown.
type CycleTaxResult struct {
	TaxShare float64 // paper: 0.071
	ByCat    map[gwp.Category]float64
}

// CycleTaxFromProfile computes Fig. 20 from a run's GWP snapshot, which
// is carried separately from the span stream.
func CycleTaxFromProfile(prof *gwp.Snapshot) *CycleTaxResult {
	res := &CycleTaxResult{
		TaxShare: prof.TaxShare(),
		ByCat:    make(map[gwp.Category]float64),
	}
	for _, c := range gwp.TaxCategories() {
		res.ByCat[c] = prof.CategoryShare(c)
	}
	return res
}

// Render formats Fig. 20.
func (r *CycleTaxResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.20  RPC cycle tax: %.2f%% of all fleet cycles\n", r.TaxShare*100)
	for _, c := range gwp.TaxCategories() {
		fmt.Fprintf(&b, "  %-14s %.2f%%\n", c, r.ByCat[c]*100)
	}
	return b.String()
}
