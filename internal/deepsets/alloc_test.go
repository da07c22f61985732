package deepsets

import (
	"math/rand"
	"testing"

	"setlearn/internal/sets"
)

// Allocation baselines for the float64 serving paths, measured with
// testing.AllocsPerRun. The f64 predictor was already designed around
// preallocated scratch, so its steady state allocates nothing: Predict
// (uncached, table, cache-hit) and PredictBatch with a caller-sized dst
// all run at 0 allocs/op once per-predictor scratch and the per-batch
// memo have warmed. These asserts pin that baseline so regressions show
// up as test failures, not as slow drift in the benchmarks.
//
// The one steady-state alloc the memo path is allowed: a batch with ids
// the memo slab has not grown to yet may extend memoSlab once. The warmup
// below runs each exact workload first, so the measured region sees the
// grown slab.

func TestPredictF64ZeroAllocsUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, compressed := range []bool{false, true} {
		m := newTestModel(t, compressed)
		p := m.NewPredictor()
		qs := randSets(rng, 4, 6, m.cfg.MaxID)
		p.Predict(qs[0])
		if n := testing.AllocsPerRun(100, func() { p.Predict(qs[1]) }); n != 0 {
			t.Errorf("compressed=%v: uncached Predict allocs/op = %v, want 0", compressed, n)
		}
	}
}

func TestPredictF64ZeroAllocsTable(t *testing.T) {
	m := newTestModel(t, false)
	m.SetPhiAccel(m.BuildPhiTable())
	p := m.NewPredictor()
	rng := rand.New(rand.NewSource(22))
	qs := randSets(rng, 4, 6, m.cfg.MaxID)
	p.Predict(qs[0])
	if n := testing.AllocsPerRun(100, func() { p.Predict(qs[1]) }); n != 0 {
		t.Errorf("table Predict allocs/op = %v, want 0", n)
	}
}

func TestPredictF64ZeroAllocsCacheHit(t *testing.T) {
	m := newTestModel(t, false)
	m.SetPhiAccel(m.NewPhiCache(1<<20, 4)) // never evicts at this size
	p := m.NewPredictor()
	rng := rand.New(rand.NewSource(23))
	qs := randSets(rng, 4, 6, m.cfg.MaxID)
	p.Predict(qs[1]) // populate the cache for the measured query
	if n := testing.AllocsPerRun(100, func() { p.Predict(qs[1]) }); n != 0 {
		t.Errorf("cache-hit Predict allocs/op = %v, want 0", n)
	}
}

func TestPredictBatchF64ZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, mode := range []string{"uncached", "table", "cache"} {
		m := newTestModel(t, false)
		switch mode {
		case "table":
			m.SetPhiAccel(m.BuildPhiTable())
		case "cache":
			m.SetPhiAccel(m.NewPhiCache(1<<20, 4))
		}
		p := m.NewPredictor()
		qs := randSets(rng, 16, 6, m.cfg.MaxID)
		dst := make([]float64, len(qs))
		// Warm up: grows the memo slab to this workload (uncached/cache
		// modes) and populates the φ-cache.
		p.PredictBatch(dst, qs)
		if n := testing.AllocsPerRun(50, func() { p.PredictBatch(dst, qs) }); n != 0 {
			t.Errorf("%s PredictBatch allocs/op = %v, want 0", mode, n)
		}
	}
}

// randSets draws n distinct-element sets of size k over [0, maxID].
func randSets(rng *rand.Rand, n, k int, maxID uint32) []sets.Set {
	qs := make([]sets.Set, n)
	for i := range qs {
		ids := make([]uint32, 0, k)
		for len(sets.New(ids...)) < k {
			ids = append(ids, uint32(rng.Intn(int(maxID)+1)))
		}
		qs[i] = sets.New(ids...)
	}
	return qs
}
