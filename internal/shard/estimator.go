package shard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
)

// estShard is the swap-unit state of one estimator shard: trained model,
// its sub-collection (needed to retrain; nil when the container was loaded
// without a collection), and the exact delta of sets inserted after the
// model was trained.
type estShard struct {
	est    *core.CardinalityEstimator // nil for a shard with no trained sets yet
	sub    *sets.Collection           // trained sets in position order; nil until attached
	global []int                      // global positions of the trained sets
	delta  *hybrid.Delta
	stat   BuildStat
}

// auxOverride is one exact-cardinality override recorded by Update. The
// decoded set rides along so a retrain can fold the counts of absorbed
// inserts into the stored value, keeping the composed answer exact.
type auxOverride struct {
	set  sets.Set
	card float64
}

// Estimator is a K-way partitioned CardinalityEstimator. Every set lives in
// exactly one shard, so the true global cardinality of a query decomposes as
// the sum of per-shard cardinalities — the fan-in is a plain sum of shard
// estimates plus each shard's exact delta count. Update cannot be
// decomposed the same way (a global count says nothing about its per-shard
// split), so exact overrides live in a container-level auxiliary map
// consulted before the fan-out, mirroring the monolith's outlier list.
type Estimator struct {
	states  []atomic.Pointer[estShard]
	k       int
	part    Partitioner
	route   *router // insert routing + freq-band query pruning; never nil
	maxSub  int
	maxID   atomic.Uint32
	queries []atomic.Uint64
	mutation
	opts *core.EstimatorOptions // scaled per-shard build options; nil: not retrainable
	fast atomic.Pointer[core.FastPathOptions]

	// auxMu guards aux and bounds. A retrain folds absorbed-insert counts
	// into the overrides under the write lock in the same critical section
	// as the state swap, so an override reader (who holds the read lock
	// across the override + delta-count composition) never sees the swap
	// half-applied. Lock order: retrainMu → insertMu → auxMu.
	auxMu  sync.RWMutex
	aux    map[string]auxOverride // query key → exact override (Update)
	bounds []float64              // per-shard measured error bounds; nil unless measured, invalidated by retrain

	// hook, when non-nil, runs at the start of every per-shard dispatch.
	// Test-only; set before use, never concurrently.
	hook func(shard int)
}

var (
	_ core.CardinalityQuerier = (*Estimator)(nil)
	_ core.Inserter           = (*Estimator)(nil)
	_ core.ShardStatser       = (*Estimator)(nil)
	_ Retrainable             = (*Estimator)(nil)
)

// BuildShardedEstimator partitions c and builds one CardinalityEstimator
// per shard in parallel on a bounded worker pool. With o.MeasureBounds set,
// each shard's maximum absolute error over the global trained-subset
// workload is measured after its build; CombinedErrorBound then reports the
// sum, which bounds |fan-in estimate − truth| on that workload by the
// triangle inequality.
func BuildShardedEstimator(c *sets.Collection, o Options, opts core.EstimatorOptions) (*Estimator, error) {
	if err := validate(c); err != nil {
		return nil, err
	}
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if opts.MaxSubset == 0 {
		opts.MaxSubset = 3
	}
	subs, globals, rt, err := buildPartition(c, o.Shards, o.Partitioner, opts.Model.Seed)
	if err != nil {
		return nil, err
	}
	rt.buildSupport(subs, opts.MaxSubset)
	opts.Model = ScaleModel(opts.Model, o.Shards, o.Scaling)

	var workload *dataset.SubsetStats
	if o.MeasureBounds {
		workload = dataset.CollectSubsets(c, opts.MaxSubset)
	}

	e := &Estimator{
		states:  make([]atomic.Pointer[estShard], o.Shards),
		k:       o.Shards,
		part:    o.Partitioner,
		route:   rt,
		maxSub:  opts.MaxSubset,
		queries: make([]atomic.Uint64, o.Shards),
		opts:    &opts,
		aux:     make(map[string]auxOverride),
	}
	e.maxID.Store(c.MaxID())
	e.baseLen = c.Len()
	e.baseSeed = opts.Model.Seed
	e.nextPos.Store(int64(c.Len()))
	if o.MeasureBounds {
		e.bounds = make([]float64, o.Shards)
	}
	err = runBounded(o.Shards, o.Parallelism, func(s int) error {
		st, err := e.buildEstShard(s, subs[s], globals[s], opts, workload)
		if err != nil {
			return err
		}
		e.states[s].Store(st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if o.MeasureBounds {
		for s := 0; s < o.Shards; s++ {
			e.bounds[s] = e.states[s].Load().stat.ErrBound
		}
	}
	return e, nil
}

// buildEstShard builds one shard's swap unit at the given options: train the
// shard model and measure its error bound over the global workload (when
// workload is non-nil). Safe to call concurrently for distinct shards.
func (e *Estimator) buildEstShard(s int, sub *sets.Collection, global []int, so core.EstimatorOptions, workload *dataset.SubsetStats) (*estShard, error) {
	st := &estShard{
		sub:    sub,
		global: global,
		delta:  hybrid.NewDelta(),
		stat:   BuildStat{Shard: s, Sets: sub.Len()},
	}
	if sub.Len() == 0 {
		return st, nil
	}
	so.Model.Seed = e.baseSeed + int64(s)
	t0 := time.Now()
	est, err := core.BuildEstimator(sub, so)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	st.est = est
	st.stat.BuildSecs = time.Since(t0).Seconds()
	st.stat.Bytes = est.SizeBytes()
	if workload != nil {
		st.stat.ErrBound = measureShardBound(e.route, s, est, sub, workload, so.MaxSubset)
	}
	return st, nil
}

// measureShardBound returns max over the global workload of
// |shard estimate − shard truth|, where shard truth is the query's
// cardinality within the shard's sub-collection (0 when absent). Because
// per-shard truths sum to the global cardinality for every workload query,
// these bounds compose additively across shards. Queries the router prunes
// for this shard are served as exact 0 — and pruning is sound (a pruned
// shard contains no superset of the query), so their error is exactly 0.
func measureShardBound(rt *router, s int, est *core.CardinalityEstimator, sub *sets.Collection, workload *dataset.SubsetStats, maxSubset int) float64 {
	local := dataset.CollectSubsets(sub, maxSubset)
	var bound float64
	for _, key := range workload.Keys {
		q := workload.ByKey[key].Set
		if rt.prunes(s, q) {
			continue
		}
		var truth float64
		if info, ok := local.ByKey[key]; ok {
			truth = float64(info.Card)
		}
		if d := math.Abs(est.Estimate(q) - truth); d > bound {
			bound = d
		}
	}
	return bound
}

// estimateShard returns one shard's contribution to the fan-in sum: the
// model estimate over the trained sets plus the exact count over the
// shard's pending delta. A shard the router prunes for q contributes its
// delta count only — the prune is exact, so the model's would-be estimate
// is replaced by the true trained-set cardinality, 0.
func (e *Estimator) estimateShard(st *estShard, s int, q sets.Set) float64 {
	if e.hook != nil {
		e.hook(s)
	}
	e.queries[s].Add(1)
	total := st.delta.Count(q)
	if st.est != nil && !e.route.prunes(s, q) {
		total += st.est.Estimate(q)
	}
	return total
}

// deltaCount sums the exact pending-delta counts for q across all shards.
//
//lint:hotpath
func (e *Estimator) deltaCount(q sets.Set) float64 {
	total := 0.0
	for s := 0; s < e.k; s++ {
		total += e.states[s].Load().delta.Count(q)
	}
	return total
}

// Estimate returns the estimated number of sets containing q: an exact
// override when one was recorded by Update (plus the exact count of later
// inserts containing q), otherwise the sum of per-shard estimates. Empty
// queries return 0, as in the monolith.
func (e *Estimator) Estimate(q sets.Set) float64 {
	if len(q) == 0 {
		return 0
	}
	e.auxMu.RLock()
	if ov, ok := e.aux[q.Key()]; ok {
		total := ov.card + e.deltaCount(q)
		e.auxMu.RUnlock()
		return total
	}
	e.auxMu.RUnlock()
	total := 0.0
	for s := 0; s < e.k; s++ {
		total += e.estimateShard(e.states[s].Load(), s, q)
	}
	return total
}

// EstimateBatch answers every query in qs into dst (grown as needed,
// returned). Exact overrides and empty queries are answered up front; the
// rest fan out to every shard's fused batch path concurrently and fan in
// by summation, with each shard's delta count added on top.
func (e *Estimator) EstimateBatch(dst []float64, qs []sets.Set) []float64 {
	if cap(dst) < len(qs) {
		dst = make([]float64, len(qs))
	} else {
		dst = dst[:len(qs)]
	}
	if len(qs) == 0 {
		return dst
	}
	sts := make([]*estShard, e.k)
	for s := range sts {
		sts[s] = e.states[s].Load()
	}
	need := make([]sets.Set, 0, len(qs))
	needAt := make([]int, 0, len(qs))
	e.auxMu.RLock()
	for i, q := range qs {
		if len(q) == 0 {
			dst[i] = 0
			continue
		}
		if ov, ok := e.aux[q.Key()]; ok {
			total := ov.card
			for s := 0; s < e.k; s++ {
				total += sts[s].delta.Count(q)
			}
			dst[i] = total
			continue
		}
		need = append(need, q)
		needAt = append(needAt, i)
	}
	e.auxMu.RUnlock()
	if len(need) == 0 {
		return dst
	}
	per := make([][]float64, e.k)
	fanOut(e.k, func(s int) {
		if e.hook != nil {
			e.hook(s)
		}
		e.queries[s].Add(uint64(len(need)))
		if sts[s].est == nil {
			return
		}
		if !e.route.hasPruning() {
			per[s] = sts[s].est.EstimateBatch(nil, need)
			return
		}
		// Scatter pruned queries as exact 0 contributions so the fan-in sum
		// matches the single-query path bit for bit (x + 0.0 == x for the
		// non-negative estimates here).
		sel := make([]sets.Set, 0, len(need))
		selAt := make([]int, 0, len(need))
		for j, q := range need {
			if !e.route.prunes(s, q) {
				sel = append(sel, q)
				selAt = append(selAt, j)
			}
		}
		out := make([]float64, len(need))
		if len(sel) > 0 {
			vals := sts[s].est.EstimateBatch(nil, sel)
			for i, j := range selAt {
				out[j] = vals[i]
			}
		}
		per[s] = out
	})
	hasDelta := make([]bool, e.k)
	for s := range sts {
		hasDelta[s] = sts[s].delta.Len() > 0
	}
	for j := range need {
		total := 0.0
		for s := 0; s < e.k; s++ {
			if per[s] != nil {
				total += per[s][j]
			}
			if hasDelta[s] {
				total += sts[s].delta.Count(need[j])
			}
		}
		dst[needAt[j]] = total
	}
	return dst
}

// Update records an exact cardinality for q, served from the container's
// auxiliary map thereafter (a global count has no canonical per-shard
// split, so it is not pushed down). The stored value is reduced by the
// deltas' current contribution — and retrains fold absorbed counts back in
// — so the composed Estimate equals card now and keeps tracking future
// inserts exactly. insertMu is held across the read-compose-write so no
// insert or retrain swap can slip between the delta count and the store.
func (e *Estimator) Update(q sets.Set, card float64) {
	q = q.Clone()
	e.insertMu.Lock()
	stored := card - e.deltaCount(q)
	e.auxMu.Lock()
	e.aux[q.Key()] = auxOverride{set: q, card: stored}
	e.auxMu.Unlock()
	e.insertMu.Unlock()
}

// Insert registers a set appended to the logical collection at global
// position pos, recording it in the owning shard's exact delta.
func (e *Estimator) Insert(s sets.Set, pos int) {
	s = s.Clone()
	e.insertMu.Lock()
	if int64(pos) >= e.nextPos.Load() {
		e.nextPos.Store(int64(pos) + 1)
	}
	e.logInsert(s, pos)
	sd := e.route.owner(s)
	e.route.noteInsert(sd, s)
	e.states[sd].Load().delta.Add(s, pos)
	e.insertMu.Unlock()
}

// InsertSet appends s to the logical collection: every estimate whose
// query is contained in s is one higher the instant this returns.
func (e *Estimator) InsertSet(s sets.Set) int {
	s = s.Clone()
	e.insertMu.Lock()
	pos := int(e.nextPos.Add(1)) - 1
	e.logInsert(s, pos)
	sd := e.route.owner(s)
	e.route.noteInsert(sd, s)
	e.states[sd].Load().delta.Add(s, pos)
	e.insertMu.Unlock()
	return pos
}

// DeltaStats reports the pending/absorbed insert counters across shards.
func (e *Estimator) DeltaStats() core.DeltaStats {
	ds := core.DeltaStats{PerShard: make([]int, e.k), Absorbed: e.absorbed.Load()}
	var oldest time.Duration
	for s := 0; s < e.k; s++ {
		d := e.states[s].Load().delta
		n := d.Len()
		ds.PerShard[s] = n
		ds.Pending += n
		if a := d.Age(); a > oldest {
			oldest = a
		}
	}
	ds.OldestSecs = oldest.Seconds()
	return ds
}

// StalestShard returns the shard most in need of a retrain, or -1 (see
// Index.StalestShard). An estimator loaded from disk additionally needs
// AttachCollection before it can retrain.
func (e *Estimator) StalestShard(minPending int) int {
	if e.opts == nil || e.states[0].Load().sub == nil {
		return -1
	}
	return stalestShard(e.k, minPending, func(s int) *hybrid.Delta { return e.states[s].Load().delta })
}

// CombinedErrorBound returns Σ per-shard measured bounds; ok is false when
// the build did not measure them, the container was loaded from disk
// without bounds, or a retrain invalidated them (the rebuilt shard model's
// error over the workload is no longer the measured one).
func (e *Estimator) CombinedErrorBound() (float64, bool) {
	e.auxMu.RLock()
	defer e.auxMu.RUnlock()
	if e.bounds == nil {
		return 0, false
	}
	total := 0.0
	for _, b := range e.bounds {
		total += b
	}
	return total, true
}

// EnableFastPath (re)configures φ acceleration on every shard; the
// configuration is remembered and re-applied to retrained shard models.
func (e *Estimator) EnableFastPath(o core.FastPathOptions) string {
	e.fast.Store(&o)
	mode := ""
	for s := 0; s < e.k; s++ {
		if sh := e.states[s].Load().est; sh != nil {
			mode = mergeMode(mode, sh.EnableFastPath(o))
		}
	}
	if mode == "" {
		mode = "off"
	}
	return mode
}

// PhiStats aggregates the per-shard φ accel counters.
func (e *Estimator) PhiStats() (deepsets.AccelStats, bool) {
	ps := make([]phiStatser, 0, e.k)
	for s := 0; s < e.k; s++ {
		if sh := e.states[s].Load().est; sh != nil {
			ps = append(ps, sh)
		}
	}
	return aggregatePhi(ps)
}

// MaxID returns the largest element id accepted by the trained models; it
// grows when a retrain absorbs inserted sets with fresh elements.
func (e *Estimator) MaxID() uint32 { return e.maxID.Load() }

// MaxSubset returns the trained subset-size cap shared by all shards.
func (e *Estimator) MaxSubset() int { return e.maxSub }

// NumShards returns K.
func (e *Estimator) NumShards() int { return e.k }

// Partitioner returns the partitioning scheme.
func (e *Estimator) Partitioner() Partitioner { return e.part }

// SizeBytes sums the per-shard footprints, deltas, and the override map.
func (e *Estimator) SizeBytes() int {
	total := 0
	for s := 0; s < e.k; s++ {
		st := e.states[s].Load()
		if st.est != nil {
			total += st.est.SizeBytes()
		}
		total += st.delta.SizeBytes()
	}
	e.auxMu.RLock()
	for k, ov := range e.aux {
		total += len(k) + 8 + 4*len(ov.set)
	}
	e.auxMu.RUnlock()
	return total
}

// BuildStats returns the per-shard build statistics; a retrained shard
// reports its latest build.
func (e *Estimator) BuildStats() []BuildStat {
	out := make([]BuildStat, e.k)
	for s := 0; s < e.k; s++ {
		out[s] = e.states[s].Load().stat
	}
	return out
}

// ShardStats reports the per-shard serving statistics.
func (e *Estimator) ShardStats() []core.ShardStat {
	out := make([]core.ShardStat, e.k)
	for s := 0; s < e.k; s++ {
		st := e.states[s].Load()
		pending := st.delta.Len()
		cs := core.ShardStat{
			Shard:   s,
			Sets:    st.stat.Sets + pending,
			Pending: pending,
			Queries: e.queries[s].Load(),
			PhiMode: "off",
		}
		if st.est != nil {
			cs.Bytes = st.est.SizeBytes()
			if ps, ok := st.est.PhiStats(); ok {
				cs.PhiMode = ps.Mode
			}
		}
		out[s] = cs
	}
	return out
}
