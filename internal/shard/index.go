package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/deepsets"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
)

// indexShard is the immutable-per-swap serving state of one index shard:
// the trained model with its sub-collection and local→global map, plus the
// exact delta of sets inserted after that model was trained. A query loads
// the shard's state pointer once and answers from that consistent pair —
// either the old model with its complete delta or the retrained model with
// the unabsorbed tail — so a background retrain can hot-swap the pointer
// under live traffic without a query ever observing a half-swapped shard.
type indexShard struct {
	idx    *core.SetIndex   // nil for a shard with no trained sets yet
	sub    *sets.Collection // trained sets, in global position order
	global []int            // local → global position for trained sets
	delta  *hybrid.Delta    // sets inserted after idx was trained
	stat   BuildStat
}

// mutation is the write-side state shared by the three sharded containers.
//
// Lock order: retrainMu → insertMu → (estimator only) auxMu. insertMu
// serializes position handout + delta append with the retrain swap, which
// is what guarantees an insert lands either in the old delta (and is then
// absorbed or carried as tail) or in the new state's delta — never lost,
// never doubled. retrainMu serializes whole retrains so a double trigger
// cannot build the same delta twice. Queries take neither: they only load
// state pointers.
type mutation struct {
	insertMu  sync.Mutex
	retrainMu sync.Mutex
	nextPos   atomic.Int64 // next global position handed to InsertSet
	baseLen   int          // collection length at original build/load
	baseSeed  int64        // per-shard model seed base (shard s uses baseSeed+s)
	absorbed  atomic.Uint64
	inserted  []hybrid.DeltaEntry // every insert since original build; insertMu
}

// logInsert records one insert in the container-wide log (for persistence
// and collection reattachment). Caller holds insertMu.
func (m *mutation) logInsert(s sets.Set, pos int) {
	m.inserted = append(m.inserted, hybrid.DeltaEntry{Pos: pos, Set: s})
}

// ownerShard picks the shard an inserted set routes to: its content hash
// under HashBySet (a pure function of the elements), or the last —
// highest-position — shard under RangeByPosition. Unlike the trained
// fan-out, empty shards are not skipped: their delta serves the set
// exactly until a retrain builds the shard's first model.
func ownerShard(k int, p Partitioner, s sets.Set) int {
	if p == HashBySet {
		return int(s.Hash() % uint64(k))
	}
	return k - 1
}

// Index is a K-way partitioned SetIndex. Queries fan out to the per-shard
// indexes and fan in by taking the minimum offset-corrected hit; both
// partitioners preserve in-shard order, so for queries within the trained
// subset cap the minimum is the global first position (the owning shard
// answers its local first occurrence exactly, and every other shard's hit
// is a real — hence later or equal — occurrence). Each shard's exact delta
// joins the fan-in the same way, so sets inserted after build are found at
// their positions immediately.
//
// Queries are lock-free: each per-shard dispatch loads the shard's
// atomic state pointer once. Writers serialize on the mutation locks.
type Index struct {
	states  []atomic.Pointer[indexShard]
	k       int
	part    Partitioner
	route   *router // insert routing + freq-band query pruning; never nil
	maxSub  int
	maxID   atomic.Uint32
	queries []atomic.Uint64
	mutation
	opts *core.IndexOptions // scaled per-shard build options; nil: not retrainable
	fast atomic.Pointer[core.FastPathOptions]

	// hook, when non-nil, runs at the start of every per-shard dispatch.
	// Test-only (panic injection); set before use, never concurrently.
	hook func(shard int)
}

var (
	_ core.IndexQuerier = (*Index)(nil)
	_ core.Inserter     = (*Index)(nil)
	_ core.ShardStatser = (*Index)(nil)
	_ Retrainable       = (*Index)(nil)
)

// BuildShardedIndex partitions c and builds one SetIndex per shard in
// parallel on a bounded worker pool, aggregating per-shard errors. Like
// core.BuildIndex, the collection is captured by reference and must not be
// mutated afterwards except through Insert/InsertSet.
func BuildShardedIndex(c *sets.Collection, o Options, opts core.IndexOptions) (*Index, error) {
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

	x := &Index{
		states:  make([]atomic.Pointer[indexShard], o.Shards),
		k:       o.Shards,
		part:    o.Partitioner,
		route:   rt,
		maxSub:  opts.MaxSubset,
		queries: make([]atomic.Uint64, o.Shards),
		opts:    &opts,
	}
	x.maxID.Store(c.MaxID())
	x.baseLen = c.Len()
	x.baseSeed = opts.Model.Seed
	x.nextPos.Store(int64(c.Len()))
	err = runBounded(o.Shards, o.Parallelism, func(s int) error {
		st, err := x.buildIdxShard(s, subs[s], globals[s], opts)
		if err != nil {
			return err
		}
		x.states[s].Store(st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// buildIdxShard builds one shard's swap unit by training the shard index.
// Safe to call concurrently for distinct shards.
func (x *Index) buildIdxShard(s int, sub *sets.Collection, global []int, so core.IndexOptions) (*indexShard, error) {
	st := &indexShard{
		sub:    sub,
		global: global,
		delta:  hybrid.NewDelta(),
		stat:   BuildStat{Shard: s, Sets: sub.Len()},
	}
	if sub.Len() == 0 {
		return st, nil
	}
	so.Model.Seed = x.baseSeed + int64(s)
	t0 := time.Now()
	idx, err := core.BuildIndex(sub, so)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	st.idx = idx
	st.stat.BuildSecs = time.Since(t0).Seconds()
	st.stat.Bytes = idx.SizeBytes()
	st.stat.MaxError = idx.MaxError()
	return st, nil
}

// lookupShard answers q on one shard's loaded state and maps the hit to a
// global position (-1 when the shard has no hit), folding in the exact
// delta of sets inserted after the shard's model was trained.
func (x *Index) lookupShard(st *indexShard, s int, q sets.Set, equal bool) int {
	if x.hook != nil {
		x.hook(s)
	}
	x.queries[s].Add(1)
	best := st.delta.FirstPos(q, equal)
	if st.idx == nil || x.route.prunes(s, q) {
		// A pruned shard provably holds no trained superset of q, so its
		// trained answer is exactly -1; only the delta can contribute.
		return best
	}
	var local int
	if equal {
		local = st.idx.LookupEqual(q)
	} else {
		local = st.idx.Lookup(q)
	}
	if local >= 0 && local < len(st.global) {
		if p := st.global[local]; best < 0 || p < best {
			best = p
		}
	}
	return best
}

func (x *Index) lookup(q sets.Set, equal bool) int {
	if len(q) == 0 {
		return -1
	}
	if x.part == RangeByPosition {
		// Shards are position-ordered (inserts route to the last shard, at
		// appended positions): the first shard with a hit wins.
		for s := 0; s < x.k; s++ {
			if p := x.lookupShard(x.states[s].Load(), s, q, equal); p >= 0 {
				return p
			}
		}
		return -1
	}
	best := -1
	for s := 0; s < x.k; s++ {
		if p := x.lookupShard(x.states[s].Load(), s, q, equal); p >= 0 && (best < 0 || p < best) {
			best = p
		}
	}
	return best
}

// Lookup returns the first position i with q ⊆ S[i], or -1.
func (x *Index) Lookup(q sets.Set) int { return x.lookup(q, false) }

// LookupEqual returns the first position whose set is exactly q, or -1.
func (x *Index) LookupEqual(q sets.Set) int { return x.lookup(q, true) }

// LookupBatch answers every query in qs, writing first positions (or -1)
// into dst (grown as needed, returned). Shards run concurrently, each
// through its fused batch path; the fan-in min is taken per query. All
// shard states are loaded up front, so the whole batch answers from one
// consistent snapshot even while a retrain swaps underneath.
func (x *Index) LookupBatch(dst []int, qs []sets.Set, equal bool) []int {
	if cap(dst) < len(qs) {
		dst = make([]int, len(qs))
	} else {
		dst = dst[:len(qs)]
	}
	if len(qs) == 0 {
		return dst
	}
	sts := make([]*indexShard, x.k)
	for s := range sts {
		sts[s] = x.states[s].Load()
	}
	per := make([][]int, x.k)
	fanOut(x.k, func(s int) {
		if x.hook != nil {
			x.hook(s)
		}
		x.queries[s].Add(uint64(len(qs)))
		if sts[s].idx == nil {
			return
		}
		if !x.route.hasPruning() {
			per[s] = sts[s].idx.LookupBatch(nil, qs, equal)
			return
		}
		// Scatter pruned queries as exact misses (-1), matching the
		// single-query path: a pruned shard holds no trained superset.
		sel := make([]sets.Set, 0, len(qs))
		selAt := make([]int, 0, len(qs))
		for j, q := range qs {
			if !x.route.prunes(s, q) {
				sel = append(sel, q)
				selAt = append(selAt, j)
			}
		}
		out := make([]int, len(qs))
		for j := range out {
			out[j] = -1
		}
		if len(sel) > 0 {
			vals := sts[s].idx.LookupBatch(nil, sel, equal)
			for i, j := range selAt {
				out[j] = vals[i]
			}
		}
		per[s] = out
	})
	hasDelta := make([]bool, x.k)
	for s := range sts {
		hasDelta[s] = sts[s].delta.Len() > 0
	}
	for i := range qs {
		best := -1
		if len(qs[i]) > 0 {
			for s := 0; s < x.k; s++ {
				if per[s] != nil {
					local := per[s][i]
					if local >= 0 && local < len(sts[s].global) {
						if p := sts[s].global[local]; best < 0 || p < best {
							best = p
						}
					}
				}
				if hasDelta[s] {
					if p := sts[s].delta.FirstPos(qs[i], equal); p >= 0 && (best < 0 || p < best) {
						best = p
					}
				}
			}
		}
		dst[i] = best
	}
	return dst
}

// Insert registers a set appended to the caller's collection at global
// position pos, recording it in the owning shard's exact delta (hash of
// the set, or the last shard for the range partitioner). Lookups find it
// the instant this returns; a later retrain absorbs it into the shard's
// model. O(1) amortized — no retraining on the write path.
func (x *Index) Insert(s sets.Set, pos int) {
	s = s.Clone()
	x.insertMu.Lock()
	if int64(pos) >= x.nextPos.Load() {
		x.nextPos.Store(int64(pos) + 1)
	}
	x.logInsert(s, pos)
	sd := x.route.owner(s)
	x.route.noteInsert(sd, s)
	x.states[sd].Load().delta.Add(s, pos)
	x.insertMu.Unlock()
}

// InsertSet appends s to the logical collection, assigning the next global
// position itself (the container owns position handout, so callers need
// no external collection bookkeeping).
func (x *Index) InsertSet(s sets.Set) int {
	s = s.Clone()
	x.insertMu.Lock()
	pos := int(x.nextPos.Add(1)) - 1
	x.logInsert(s, pos)
	sd := x.route.owner(s)
	x.route.noteInsert(sd, s)
	x.states[sd].Load().delta.Add(s, pos)
	x.insertMu.Unlock()
	return pos
}

// DeltaStats reports the pending/absorbed insert counters across shards.
func (x *Index) DeltaStats() core.DeltaStats {
	ds := core.DeltaStats{PerShard: make([]int, x.k), Absorbed: x.absorbed.Load()}
	var oldest time.Duration
	for s := 0; s < x.k; s++ {
		d := x.states[s].Load().delta
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

// StalestShard returns the shard most in need of a retrain — the largest
// pending delta, oldest first insert breaking ties — or -1 when no shard
// has at least minPending pending inserts (or the container was loaded
// from a stream without retrain state).
func (x *Index) StalestShard(minPending int) int {
	if x.opts == nil {
		return -1
	}
	return stalestShard(x.k, minPending, func(s int) *hybrid.Delta { return x.states[s].Load().delta })
}

// EnableFastPath (re)configures φ acceleration on every shard and reports
// the resulting mode ("table", "cache", "off", or "mixed"). The
// configuration is remembered and re-applied to retrained shard models.
func (x *Index) EnableFastPath(o core.FastPathOptions) string {
	x.fast.Store(&o)
	mode := ""
	for s := 0; s < x.k; s++ {
		if sh := x.states[s].Load().idx; sh != nil {
			mode = mergeMode(mode, sh.EnableFastPath(o))
		}
	}
	if mode == "" {
		mode = "off"
	}
	return mode
}

// PhiStats aggregates the per-shard φ accel counters.
func (x *Index) PhiStats() (deepsets.AccelStats, bool) {
	ps := make([]phiStatser, 0, x.k)
	for s := 0; s < x.k; s++ {
		if sh := x.states[s].Load().idx; sh != nil {
			ps = append(ps, sh)
		}
	}
	return aggregatePhi(ps)
}

// MaxID returns the largest element id accepted by the trained models; it
// grows when a retrain absorbs inserted sets with fresh elements.
func (x *Index) MaxID() uint32 { return x.maxID.Load() }

// MaxSubset returns the trained subset-size cap shared by all shards.
func (x *Index) MaxSubset() int { return x.maxSub }

// NumShards returns K.
func (x *Index) NumShards() int { return x.k }

// Partitioner returns the partitioning scheme.
func (x *Index) Partitioner() Partitioner { return x.part }

// SizeBytes sums the per-shard structure and delta footprints.
func (x *Index) SizeBytes() int {
	total := 0
	for s := 0; s < x.k; s++ {
		st := x.states[s].Load()
		if st.idx != nil {
			total += st.idx.SizeBytes()
		}
		total += st.delta.SizeBytes()
	}
	return total
}

// BuildStats returns the per-shard build statistics; a retrained shard
// reports its latest build.
func (x *Index) BuildStats() []BuildStat {
	out := make([]BuildStat, x.k)
	for s := 0; s < x.k; s++ {
		out[s] = x.states[s].Load().stat
	}
	return out
}

// ShardStats reports the per-shard serving statistics published under
// setlearn.shard.* by the server.
func (x *Index) ShardStats() []core.ShardStat {
	out := make([]core.ShardStat, x.k)
	for s := 0; s < x.k; s++ {
		st := x.states[s].Load()
		pending := st.delta.Len()
		cs := core.ShardStat{
			Shard:   s,
			Sets:    len(st.global) + pending,
			Pending: pending,
			Queries: x.queries[s].Load(),
			PhiMode: "off",
		}
		if st.idx != nil {
			cs.Bytes = st.idx.SizeBytes()
			if ps, ok := st.idx.PhiStats(); ok {
				cs.PhiMode = ps.Mode
			}
		}
		out[s] = cs
	}
	return out
}

// stalestShard is the shared staleness scan: largest pending delta wins,
// oldest first insert breaks ties.
func stalestShard(k, minPending int, delta func(int) *hybrid.Delta) int {
	if minPending < 1 {
		minPending = 1
	}
	best, bestN := -1, 0
	var bestAge time.Duration
	for s := 0; s < k; s++ {
		d := delta(s)
		n := d.Len()
		if n < minPending {
			continue
		}
		if a := d.Age(); n > bestN || (n == bestN && a > bestAge) {
			best, bestN, bestAge = s, n, a
		}
	}
	return best
}
