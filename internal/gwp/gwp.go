// Package gwp implements a Google-Wide-Profiling-style fleet CPU profiler:
// sampled cycle counts attributed to application work or to one of the RPC
// cycle-tax categories. Figure 20 of the paper — the 7.1% fleet-wide RPC
// cycle tax split into compression (3.1%), networking (1.7%),
// serialization (1.2%), and the RPC library itself (1.1%) — is computed
// from exactly this attribution.
package gwp

import (
	"fmt"
	"sort"
	"sync"
)

// Category attributes CPU cycles to a layer of the stack.
type Category uint8

// Cycle attribution categories. Application is the handler itself;
// everything else is RPC cycle tax.
const (
	Application Category = iota
	Compression
	Networking
	Serialization
	RPCLibrary

	NumCategories int = iota
)

var categoryNames = [NumCategories]string{
	"Application", "Compression", "Networking", "Serialization", "RPCLibrary",
}

// String returns the category name.
func (c Category) String() string {
	if int(c) >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// TaxCategories lists the non-application categories.
func TaxCategories() []Category {
	return []Category{Compression, Networking, Serialization, RPCLibrary}
}

// Profiler accumulates sampled cycles. It is safe for concurrent use.
// Cycles are in normalized units (architecture-neutral), as in Fig. 21.
type Profiler struct {
	mu       sync.Mutex
	byCat    [NumCategories]float64
	bySvc    map[string]*ServiceProfile
	byMethod map[string]*float64 // total cycles per method (all categories)
}

// ServiceProfile is the per-service cycle attribution.
type ServiceProfile struct {
	Service string
	ByCat   [NumCategories]float64
}

// Total returns all cycles attributed to the service.
func (p *ServiceProfile) Total() float64 {
	var t float64
	for _, v := range p.ByCat {
		t += v
	}
	return t
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{
		bySvc:    make(map[string]*ServiceProfile),
		byMethod: make(map[string]*float64),
	}
}

// Record attributes one call's cycles, by category, to a (service,
// method) pair. Categories with cycles <= 0 are skipped, and a call with
// none above 0 creates no entry. The rest are added in category order to
// the fleet, service and method totals, so a call recorded here sums
// exactly as recording its categories one by one would.
func (p *Profiler) Record(service, method string, cycles *[NumCategories]float64) {
	var s Slot
	p.RecordSlot(&s, service, method, cycles)
}

// Slot holds a (service, method) pair's entries in one Profiler, so a
// caller that records the pair again and again looks its names up once.
// The zero Slot is unresolved. A slot belongs to the profiler that
// resolved it, and Reset strands it: resolve a fresh one after a Reset.
type Slot struct {
	sp *ServiceProfile
	mt *float64
}

// RecordSlot is Record through s, which it resolves on the first positive
// category, when Record would create the entries: the additions and their
// order are Record's.
func (p *Profiler) RecordSlot(s *Slot, service, method string, cycles *[NumCategories]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for cat, c := range cycles {
		if c <= 0 {
			continue
		}
		if s.sp == nil {
			*s = Slot{p.service(service), p.method(method)}
		}
		p.byCat[cat] += c
		s.sp.ByCat[cat] += c
		*s.mt += c
	}
}

// service returns the service's entry, creating it if needed; p.mu is held.
func (p *Profiler) service(name string) *ServiceProfile {
	sp := p.bySvc[name]
	if sp == nil {
		sp = &ServiceProfile{Service: name}
		p.bySvc[name] = sp
	}
	return sp
}

// method returns the method's running total, creating it if needed; p.mu
// is held.
func (p *Profiler) method(name string) *float64 {
	mt := p.byMethod[name]
	if mt == nil {
		mt = new(float64)
		p.byMethod[name] = mt
	}
	return mt
}

// Merge folds all cycles recorded in other into p. Each (service,
// category) and method key is combined with a single addition, so the
// result of merging a fixed sequence of profilers is deterministic
// regardless of map iteration order. Generation shards record into
// private profilers and merge them in shard-index order, which keeps
// floating-point accumulation identical from run to run.
//
// other is snapshotted under its own lock before p's lock is taken, so
// the two Profiler locks are never held together: concurrent
// a.Merge(b) and b.Merge(a) cannot deadlock on crossed acquisition.
func (p *Profiler) Merge(other *Profiler) {
	if other == nil || other == p {
		return
	}
	other.mu.Lock()
	byCat := other.byCat
	bySvc := make(map[string]*ServiceProfile, len(other.bySvc))
	for name, osp := range other.bySvc {
		cp := *osp
		bySvc[name] = &cp
	}
	byMethod := make(map[string]float64, len(other.byMethod))
	for m, v := range other.byMethod {
		byMethod[m] = *v
	}
	other.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	for c, v := range byCat {
		p.byCat[c] += v
	}
	for name, osp := range bySvc {
		sp := p.service(name)
		for c, v := range osp.ByCat {
			sp.ByCat[c] += v
		}
	}
	for m, v := range byMethod {
		*p.method(m) += v
	}
}

// Snapshot is a point-in-time view of fleet cycle attribution.
type Snapshot struct {
	ByCat    [NumCategories]float64
	Services []*ServiceProfile // sorted by total cycles, descending
	ByMethod map[string]float64
}

// Total returns all cycles in the snapshot.
func (s *Snapshot) Total() float64 {
	var t float64
	for _, v := range s.ByCat {
		t += v
	}
	return t
}

// TaxCycles returns the cycles in tax categories.
func (s *Snapshot) TaxCycles() float64 { return s.Total() - s.ByCat[Application] }

// TaxShare returns the fraction of all cycles that are RPC tax — the
// paper's headline 7.1%.
func (s *Snapshot) TaxShare() float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	return s.TaxCycles() / total
}

// CategoryShare returns a category's fraction of all cycles.
func (s *Snapshot) CategoryShare(cat Category) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	return s.ByCat[cat] / total
}

// Snapshot captures the current attribution.
func (p *Profiler) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := &Snapshot{ByCat: p.byCat, ByMethod: make(map[string]float64, len(p.byMethod))}
	for m, v := range p.byMethod {
		snap.ByMethod[m] = *v
	}
	for _, sp := range p.bySvc {
		cp := *sp
		snap.Services = append(snap.Services, &cp)
	}
	sort.Slice(snap.Services, func(i, j int) bool {
		ti, tj := snap.Services[i].Total(), snap.Services[j].Total()
		if ti != tj {
			return ti > tj
		}
		return snap.Services[i].Service < snap.Services[j].Service
	})
	return snap
}

// Reset clears all recorded samples.
func (p *Profiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.byCat = [NumCategories]float64{}
	p.bySvc = make(map[string]*ServiceProfile)
	p.byMethod = make(map[string]*float64)
}
