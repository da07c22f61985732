package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
	"setlearn/internal/shard"
)

// shardedFixture builds one sharded container of each kind over a small
// collection, shared across the sharded-serving tests.
type shardedFix struct {
	c   *sets.Collection
	idx *shard.Index
	est *shard.Estimator
	mf  *shard.Filter

	queries []sets.Set
}

var (
	shardOnce sync.Once
	shardFix  *shardedFix
	shardErr  error
)

func sharedShardedFixture(tb testing.TB) *shardedFix {
	tb.Helper()
	shardOnce.Do(func() {
		model := core.ModelOptions{
			EmbedDim: 4, PhiHidden: []int{8}, PhiOut: 8, RhoHidden: []int{8},
			Epochs: 2, LR: 0.01, Workers: 1, Seed: 11,
		}
		c := dataset.GenerateSD(120, 30, 83)
		f := &shardedFix{c: c}
		o := shard.Options{Shards: 3, Partitioner: shard.HashBySet}
		if f.idx, shardErr = shard.BuildShardedIndex(c, o, core.IndexOptions{
			Model: model, MaxSubset: 2, Percentile: 90,
		}); shardErr != nil {
			return
		}
		if f.est, shardErr = shard.BuildShardedEstimator(c, o, core.EstimatorOptions{
			Model: model, MaxSubset: 2, Percentile: 50,
		}); shardErr != nil {
			return
		}
		if f.mf, shardErr = shard.BuildShardedFilter(c, o, core.FilterOptions{
			Model: model, MaxSubset: 2,
		}); shardErr != nil {
			return
		}
		st := dataset.CollectSubsets(c, 2)
		for i, k := range st.Keys {
			if i%5 == 0 {
				f.queries = append(f.queries, st.ByKey[k].Set)
			}
		}
		shardFix = f
	})
	if shardErr != nil {
		tb.Fatalf("building sharded fixture: %v", shardErr)
	}
	return shardFix
}

// TestServeShardedStructures proves the HTTP layer is container-agnostic: a
// partitioned container served through the same Structures fields answers
// exactly like direct in-process calls, single and batched.
func TestServeShardedStructures(t *testing.T) {
	f := sharedShardedFixture(t)
	ts := newTestServer(t, Structures{Index: f.idx, Estimator: f.est, Filter: f.mf})

	var batch []any
	for _, q := range f.queries {
		batch = append(batch, idsOf(q))
	}

	for _, q := range f.queries {
		var cr cardResp
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/card", map[string]any{"query": idsOf(q)}, &cr); code != http.StatusOK {
			t.Fatalf("card status %d", code)
		}
		if cr.Estimate == nil || *cr.Estimate != f.est.Estimate(q) {
			t.Fatalf("card(%v) over HTTP = %v, direct %g", q, cr.Estimate, f.est.Estimate(q))
		}
		var ir indexResp
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/index", map[string]any{"query": idsOf(q)}, &ir); code != http.StatusOK {
			t.Fatalf("index status %d", code)
		}
		if ir.Position == nil || *ir.Position != f.idx.Lookup(q) {
			t.Fatalf("index(%v) over HTTP = %v, direct %d", q, ir.Position, f.idx.Lookup(q))
		}
		var mr memberResp
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/member", map[string]any{"query": idsOf(q)}, &mr); code != http.StatusOK {
			t.Fatalf("member status %d", code)
		}
		if mr.Member == nil || *mr.Member != f.mf.Contains(q) {
			t.Fatalf("member(%v) over HTTP = %v, direct %v", q, mr.Member, f.mf.Contains(q))
		}
	}

	var cr cardResp
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/card", map[string]any{"queries": batch}, &cr); code != http.StatusOK {
		t.Fatalf("batch card status %d", code)
	}
	want := f.est.EstimateBatch(nil, f.queries)
	if len(cr.Estimates) != len(want) {
		t.Fatalf("batch card returned %d estimates, want %d", len(cr.Estimates), len(want))
	}
	for i := range want {
		if cr.Estimates[i] != want[i] {
			t.Fatalf("batch card[%d] = %g, direct %g", i, cr.Estimates[i], want[i])
		}
	}
}

// TestShardExpvarPublished: serving a partitioned container must surface
// per-shard stats under setlearn.shard.<endpoint> on /debug/vars, one entry
// per shard with the shard's set count.
func TestShardExpvarPublished(t *testing.T) {
	f := sharedShardedFixture(t)
	ts := newTestServer(t, Structures{Estimator: f.est})

	// Route one query so the per-shard counters are live.
	var cr cardResp
	postJSON(t, ts.Client(), ts.URL+"/v1/card", map[string]any{"query": idsOf(f.queries[0])}, &cr)

	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	raw, ok := vars["setlearn.shard.card"]
	if !ok {
		t.Fatal("setlearn.shard.card not published")
	}
	var stats []core.ShardStat
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("setlearn.shard.card is not a ShardStat list: %v", err)
	}
	if len(stats) != f.est.NumShards() {
		t.Fatalf("published %d shard entries, want %d", len(stats), f.est.NumShards())
	}
	total := 0
	for _, s := range stats {
		total += s.Sets
	}
	if total != f.c.Len() {
		t.Fatalf("published shard set counts sum to %d, collection has %d", total, f.c.Len())
	}
}
