package gwp

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// one returns a call's cycles with only category c set.
func one(c Category, cycles float64) *[NumCategories]float64 {
	var a [NumCategories]float64
	a[c] = cycles
	return &a
}

func TestRecordAndSnapshot(t *testing.T) {
	p := New()
	p.Record("networkdisk", "networkdisk/Write", one(Application, 80))
	p.Record("networkdisk", "networkdisk/Write", one(Compression, 10))
	p.Record("networkdisk", "networkdisk/Write", one(Networking, 5))
	p.Record("spanner", "spanner/Read", one(Application, 100))
	p.Record("spanner", "spanner/Read", one(Serialization, 5))

	s := p.Snapshot()
	if got := s.Total(); got != 200 {
		t.Errorf("total = %v", got)
	}
	if got := s.TaxCycles(); got != 20 {
		t.Errorf("tax cycles = %v", got)
	}
	if got := s.TaxShare(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("tax share = %v", got)
	}
	if got := s.CategoryShare(Compression); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("compression share = %v", got)
	}
}

func TestServicesSortedByTotal(t *testing.T) {
	p := New()
	p.Record("small", "small/M", one(Application, 1))
	p.Record("big", "big/M", one(Application, 100))
	p.Record("mid", "mid/M", one(Application, 10))
	s := p.Snapshot()
	if len(s.Services) != 3 {
		t.Fatalf("services = %d", len(s.Services))
	}
	if s.Services[0].Service != "big" || s.Services[2].Service != "small" {
		t.Errorf("order = %v %v %v", s.Services[0].Service, s.Services[1].Service, s.Services[2].Service)
	}
}

func TestPerMethodTotals(t *testing.T) {
	p := New()
	p.Record("s", "s/A", one(Application, 3))
	p.Record("s", "s/A", one(RPCLibrary, 2))
	p.Record("s", "s/B", one(Application, 7))
	s := p.Snapshot()
	if s.ByMethod["s/A"] != 5 || s.ByMethod["s/B"] != 7 {
		t.Errorf("byMethod = %v", s.ByMethod)
	}
}

func TestNonPositiveIgnored(t *testing.T) {
	p := New()
	p.Record("s", "s/M", one(Application, 0))
	p.Record("s", "s/M", one(Application, -5))
	p.Record("s", "s/M", &[NumCategories]float64{0, -1, 0, -2, 0})
	s := p.Snapshot()
	if s.Total() != 0 || len(s.Services) != 0 || len(s.ByMethod) != 0 {
		t.Errorf("non-positive cycles created entries: total %v, %d services, %d methods", s.Total(), len(s.Services), len(s.ByMethod))
	}
}

// Recording a call's categories in one Record sums exactly as recording
// them one category at a time, in category order, always did: every float
// of the snapshot is equal, not merely close.
func TestRecordMatchesPerCategorySequence(t *testing.T) {
	whole, perCat := New(), New()
	x := uint64(1)
	next := func() float64 { // a fixed stream of awkward floats
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11)/(1<<53)*3 - 1 // in [-1, 2): a third are <= 0
	}
	services := []string{"a", "b", "c"}
	for i := 0; i < 5000; i++ {
		svc := services[i%len(services)]
		method := svc + "/" + string(rune('A'+i%7))
		var cycles [NumCategories]float64
		for c := range cycles {
			cycles[c] = next()
		}
		if i%50 == 0 {
			cycles = [NumCategories]float64{0, -1, 0, -0.5, 0} // nothing to record
			method = "none/" + method
		}
		whole.Record(svc, method, &cycles)
		for c, v := range cycles {
			perCat.Record(svc, method, one(Category(c), v))
		}
	}
	a, b := whole.Snapshot(), perCat.Snapshot()
	if a.ByCat != b.ByCat {
		t.Errorf("byCat %v, per category %v", a.ByCat, b.ByCat)
	}
	if len(a.Services) != len(b.Services) {
		t.Fatalf("%d services, per category %d", len(a.Services), len(b.Services))
	}
	for i := range a.Services {
		if *a.Services[i] != *b.Services[i] {
			t.Errorf("service %v, per category %v", *a.Services[i], *b.Services[i])
		}
	}
	if len(a.ByMethod) != len(b.ByMethod) {
		t.Errorf("%d methods, per category %d", len(a.ByMethod), len(b.ByMethod))
	}
	for m, v := range a.ByMethod {
		if b.ByMethod[m] != v {
			t.Errorf("method %s: %v, per category %v", m, v, b.ByMethod[m])
		}
		if strings.HasPrefix(m, "none/") {
			t.Errorf("method %s has only non-positive cycles but has an entry", m)
		}
	}
}

func TestEmptySnapshotShares(t *testing.T) {
	s := New().Snapshot()
	if s.TaxShare() != 0 || s.CategoryShare(Compression) != 0 {
		t.Error("empty shares should be 0")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	p := New()
	p.Record("s", "s/M", one(Application, 5))
	s := p.Snapshot()
	p.Record("s", "s/M", one(Application, 5))
	if s.Total() != 5 {
		t.Error("snapshot mutated by later records")
	}
	s.ByMethod["s/M"] = 999
	if p.Snapshot().ByMethod["s/M"] != 10 {
		t.Error("snapshot map aliased profiler state")
	}
}

func TestReset(t *testing.T) {
	p := New()
	p.Record("s", "s/M", one(Compression, 5))
	p.Reset()
	s := p.Snapshot()
	if s.Total() != 0 || len(s.Services) != 0 || len(s.ByMethod) != 0 {
		t.Error("reset incomplete")
	}
}

func TestConcurrentRecord(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Record("s", "s/M", one(Application, 1))
			}
		}()
	}
	wg.Wait()
	if got := p.Snapshot().Total(); got != 8000 {
		t.Errorf("total = %v", got)
	}
}

func TestCategoryNames(t *testing.T) {
	if Application.String() != "Application" || Compression.String() != "Compression" {
		t.Error("category names wrong")
	}
	if Category(99).String() == "" {
		t.Error("unknown category should format")
	}
	if len(TaxCategories()) != NumCategories-1 {
		t.Error("TaxCategories should exclude Application only")
	}
}

func TestPaperTaxShape(t *testing.T) {
	// Feed the profiler the paper's Fig. 20 proportions and verify the
	// shares come back out: app 92.9%, compression 3.1%, networking 1.7%,
	// serialization 1.2%, RPC library 1.1% -> tax 7.1%.
	p := New()
	p.Record("fleet", "fleet/all", one(Application, 92.9))
	p.Record("fleet", "fleet/all", one(Compression, 3.1))
	p.Record("fleet", "fleet/all", one(Networking, 1.7))
	p.Record("fleet", "fleet/all", one(Serialization, 1.2))
	p.Record("fleet", "fleet/all", one(RPCLibrary, 1.1))
	s := p.Snapshot()
	if got := s.TaxShare(); math.Abs(got-0.071) > 1e-9 {
		t.Errorf("tax share = %v, want 0.071", got)
	}
}
