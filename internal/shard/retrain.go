package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
)

// The live-mutation retrain path. A retrain absorbs one shard's pending
// delta into a freshly trained model and hot-swaps the shard's state
// pointer under live traffic:
//
//  1. Snapshot the delta (append-only, so the prefix of length cut is
//     stable) and merge it with the shard's trained sub-collection in
//     global position order.
//  2. Build the new core structure off the serving path, with the same
//     scaled options and the same deterministic seed (baseSeed+shard) the
//     original build used — so the result is bit-identical to a
//     from-scratch build over the union collection.
//  3. Under insertMu, collect the tail (inserts that landed during the
//     build), swap in the new state carrying the tail as its delta, and
//     raise the accepted MaxID.
//
// Because inserts also run under insertMu, every insert lands either in
// the old delta (absorbed now or carried as tail) or in the new state's
// delta — never lost, never double-counted. Queries load one state
// pointer and see either (old model + complete old delta) or (new model +
// tail); both compose to the same answers, which is what the
// mutation-under-load battery pins.

// Retrainable is a container whose shards can be rebuilt in the background
// by a Trainer.
type Retrainable interface {
	// StalestShard returns the shard most in need of a retrain — largest
	// pending delta, oldest tie-break — or -1 when every shard has fewer
	// than minPending pending inserts or the container cannot retrain.
	StalestShard(minPending int) int
	// RetrainShard rebuilds shard s over its trained sets plus pending
	// delta and hot-swaps the result. A no-op (nil) when the delta is
	// empty, which makes double triggers idempotent.
	RetrainShard(s int) error
	// DeltaStats reports the pending/absorbed counters.
	DeltaStats() core.DeltaStats
}

// mergeTrained merges a shard's trained sets with absorbed delta entries
// into a fresh position-ordered (sub-collection, global map) pair — the
// exact pair a from-scratch partition of the union collection would
// produce for this shard.
func mergeTrained(sub *sets.Collection, global []int, absorbed []hybrid.DeltaEntry) (*sets.Collection, []int) {
	type posSet struct {
		pos int
		set sets.Set
	}
	n := sub.Len()
	all := make([]posSet, 0, n+len(absorbed))
	for i := 0; i < n; i++ {
		all = append(all, posSet{global[i], sub.At(i)})
	}
	for _, en := range absorbed {
		all = append(all, posSet{en.Pos, en.Set})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	ns := &sets.Collection{Sets: make([]sets.Set, 0, len(all))}
	ng := make([]int, 0, len(all))
	for _, p := range all {
		ns.Append(p.set)
		ng = append(ng, p.pos)
	}
	return ns, ng
}

// raiseMaxID lifts the container's accepted-id ceiling; only retrains
// write it (serialized by retrainMu), so load-then-store is race-free.
func raiseMaxID(m *atomic.Uint32, id uint32) {
	if id > m.Load() {
		m.Store(id)
	}
}

// RetrainShard rebuilds shard s's index over its trained sets plus the
// pending delta and hot-swaps it. Returns nil without building when the
// delta is empty.
func (x *Index) RetrainShard(s int) error {
	if s < 0 || s >= x.k {
		return fmt.Errorf("shard: retrain: shard %d out of range [0, %d)", s, x.k)
	}
	if x.opts == nil {
		return fmt.Errorf("shard: retrain: container loaded without retrain state (v1 stream)")
	}
	x.retrainMu.Lock()
	defer x.retrainMu.Unlock()
	old := x.states[s].Load()
	snap := old.delta.Snapshot()
	cut := len(snap)
	if cut == 0 {
		return nil
	}
	sub, global := mergeTrained(old.sub, old.global, snap)
	opts := *x.opts
	opts.Model.Seed = x.baseSeed + int64(s)
	t0 := time.Now()
	idx, err := core.BuildIndex(sub, opts)
	if err != nil {
		return fmt.Errorf("shard: retrain shard %d: %w", s, err)
	}
	if fp := x.fast.Load(); fp != nil {
		idx.EnableFastPath(*fp)
	}
	stat := BuildStat{
		Shard: s, Sets: sub.Len(),
		BuildSecs: time.Since(t0).Seconds(),
		Bytes:     idx.SizeBytes(),
		MaxError:  idx.MaxError(),
	}
	x.insertMu.Lock()
	tail := old.delta.Tail(cut)
	x.states[s].Store(&indexShard{
		idx: idx, sub: sub, global: global,
		delta: hybrid.NewDeltaFrom(tail), stat: stat,
	})
	x.insertMu.Unlock()
	x.absorbed.Add(uint64(cut))
	raiseMaxID(&x.maxID, sub.MaxID())
	return nil
}

// RetrainShard rebuilds shard s's estimator over its trained sets plus the
// pending delta and hot-swaps it, folding the absorbed counts into any
// exact overrides so their composed answers do not move. Returns nil
// without building when the delta is empty. Requires the shard
// sub-collections (present after a build; a loaded estimator needs
// AttachCollection first).
func (e *Estimator) RetrainShard(s int) error {
	if s < 0 || s >= e.k {
		return fmt.Errorf("shard: retrain: shard %d out of range [0, %d)", s, e.k)
	}
	if e.opts == nil {
		return fmt.Errorf("shard: retrain: container loaded without retrain state (v1 stream)")
	}
	e.retrainMu.Lock()
	defer e.retrainMu.Unlock()
	old := e.states[s].Load()
	if old.sub == nil {
		return fmt.Errorf("shard: retrain shard %d: no collection attached (call AttachCollection)", s)
	}
	snap := old.delta.Snapshot()
	cut := len(snap)
	if cut == 0 {
		return nil
	}
	sub, global := mergeTrained(old.sub, old.global, snap)
	opts := *e.opts
	opts.Model.Seed = e.baseSeed + int64(s)
	t0 := time.Now()
	est, err := core.BuildEstimator(sub, opts)
	if err != nil {
		return fmt.Errorf("shard: retrain shard %d: %w", s, err)
	}
	if fp := e.fast.Load(); fp != nil {
		est.EnableFastPath(*fp)
	}
	stat := BuildStat{
		Shard: s, Sets: sub.Len(),
		BuildSecs: time.Since(t0).Seconds(),
		Bytes:     est.SizeBytes(),
	}
	// The swap and the override folding happen inside one auxMu critical
	// section: an override reader holds the read lock across its override
	// + delta-count composition, so it either sees (old delta counts, old
	// override values) or (tail counts, folded values) — both exact.
	e.insertMu.Lock()
	e.auxMu.Lock()
	tail := old.delta.Tail(cut)
	e.states[s].Store(&estShard{
		est: est, sub: sub, global: global,
		delta: hybrid.NewDeltaFrom(tail), stat: stat,
	})
	for key, ov := range e.aux {
		folded := 0.0
		for _, en := range snap {
			if en.Set.ContainsAll(ov.set) {
				folded++
			}
		}
		if folded > 0 {
			ov.card += folded
			e.aux[key] = ov
		}
	}
	// The rebuilt model's error over the measured workload is unknown.
	e.bounds = nil
	e.auxMu.Unlock()
	e.insertMu.Unlock()
	e.absorbed.Add(uint64(cut))
	raiseMaxID(&e.maxID, sub.MaxID())
	return nil
}

// RetrainShard rebuilds shard s's membership filter over its trained sets
// plus the pending delta and hot-swaps it. Returns nil without building
// when the delta is empty. Requires the shard sub-collections (present
// after a build; a loaded filter needs AttachCollection first).
func (f *Filter) RetrainShard(s int) error {
	if s < 0 || s >= f.k {
		return fmt.Errorf("shard: retrain: shard %d out of range [0, %d)", s, f.k)
	}
	if f.opts == nil {
		return fmt.Errorf("shard: retrain: container loaded without retrain state (v1 stream)")
	}
	f.retrainMu.Lock()
	defer f.retrainMu.Unlock()
	old := f.states[s].Load()
	if old.sub == nil {
		return fmt.Errorf("shard: retrain shard %d: no collection attached (call AttachCollection)", s)
	}
	snap := old.delta.Snapshot()
	cut := len(snap)
	if cut == 0 {
		return nil
	}
	sub, global := mergeTrained(old.sub, old.global, snap)
	opts := *f.opts
	opts.Model.Seed = f.baseSeed + int64(s)
	t0 := time.Now()
	flt, err := core.BuildMembershipFilter(sub, opts)
	if err != nil {
		return fmt.Errorf("shard: retrain shard %d: %w", s, err)
	}
	if fp := f.fast.Load(); fp != nil {
		flt.EnableFastPath(*fp)
	}
	stat := BuildStat{
		Shard: s, Sets: sub.Len(),
		BuildSecs: time.Since(t0).Seconds(),
		Bytes:     flt.SizeBytes(),
	}
	f.insertMu.Lock()
	tail := old.delta.Tail(cut)
	f.states[s].Store(&fltShard{
		flt: flt, sub: sub, global: global,
		delta: hybrid.NewDeltaFrom(tail), stat: stat,
	})
	f.insertMu.Unlock()
	f.absorbed.Add(uint64(cut))
	raiseMaxID(&f.maxID, sub.MaxID())
	return nil
}

// attachSubs rebuilds each shard's sub-collection from its persisted
// global positions, resolving each position from the base collection or
// the inserted-set log. Shared by the estimator and filter
// AttachCollection implementations.
func attachSubs(k, baseLen int, c *sets.Collection, inserted []hybrid.DeltaEntry,
	global func(s int) []int, store func(s int, sub *sets.Collection) error) error {
	if c == nil {
		return fmt.Errorf("shard: attach: nil collection")
	}
	if c.Len() < baseLen {
		return fmt.Errorf("shard: attach: collection has %d sets, container was built over %d", c.Len(), baseLen)
	}
	byPos := make(map[int]sets.Set, len(inserted))
	for _, en := range inserted {
		byPos[en.Pos] = en.Set
	}
	for s := 0; s < k; s++ {
		g := global(s)
		if g == nil {
			return fmt.Errorf("shard: attach: shard %d has no position map (v1 stream)", s)
		}
		sub := &sets.Collection{Sets: make([]sets.Set, 0, len(g))}
		for _, pos := range g {
			switch {
			case pos >= 0 && pos < baseLen:
				sub.Append(c.At(pos))
			case byPos[pos] != nil:
				sub.Append(byPos[pos])
			default:
				return fmt.Errorf("shard: attach: shard %d references unknown position %d", s, pos)
			}
		}
		if err := store(s, sub); err != nil {
			return err
		}
	}
	return nil
}

// AttachCollection gives a loaded estimator its collection back, enabling
// retrains: each shard's sub-collection is rebuilt from the persisted
// position maps. c must be the collection the container was originally
// built over (it may be longer; only the first baseLen sets are used).
func (e *Estimator) AttachCollection(c *sets.Collection) error {
	if e.opts == nil {
		return fmt.Errorf("shard: attach: container loaded without retrain state (v1 stream)")
	}
	e.retrainMu.Lock()
	defer e.retrainMu.Unlock()
	e.insertMu.Lock()
	defer e.insertMu.Unlock()
	return attachSubs(e.k, e.baseLen, c, e.inserted,
		func(s int) []int { return e.states[s].Load().global },
		func(s int, sub *sets.Collection) error {
			st := e.states[s].Load()
			e.states[s].Store(&estShard{
				est: st.est, sub: sub, global: st.global,
				delta: st.delta, stat: st.stat,
			})
			return nil
		})
}

// AttachCollection gives a loaded filter its collection back, enabling
// retrains (see Estimator.AttachCollection).
func (f *Filter) AttachCollection(c *sets.Collection) error {
	if f.opts == nil {
		return fmt.Errorf("shard: attach: container loaded without retrain state (v1 stream)")
	}
	f.retrainMu.Lock()
	defer f.retrainMu.Unlock()
	f.insertMu.Lock()
	defer f.insertMu.Unlock()
	return attachSubs(f.k, f.baseLen, c, f.inserted,
		func(s int) []int { return f.states[s].Load().global },
		func(s int, sub *sets.Collection) error {
			st := f.states[s].Load()
			f.states[s].Store(&fltShard{
				flt: st.flt, sub: sub, global: st.global,
				delta: st.delta, stat: st.stat,
			})
			return nil
		})
}

// TrainerStats are the background trainer's counters, published by the
// server under setlearn.retrain.*.
type TrainerStats struct {
	Sweeps   uint64  `json:"sweeps"`
	Retrains uint64  `json:"retrains"`
	Errors   uint64  `json:"errors"`
	LastSecs float64 `json:"last_secs"` // duration of the most recent retrain
}

// Trainer owns the background retrain loop: every interval (or on Kick) it
// scans its targets for the stalest shard and rebuilds at most one shard
// per target per sweep, off the serving path. Builds are serialized per
// container by retrainMu, so a Trainer never races a manual RetrainShard.
type Trainer struct {
	targets   []Retrainable
	interval  time.Duration
	threshold int

	kick   chan struct{}
	done   chan struct{}
	cancel context.CancelFunc

	sweeps   atomic.Uint64
	retrains atomic.Uint64
	errors   atomic.Uint64
	lastSecs atomic.Uint64 // math.Float64bits
	onErr    func(error)
}

// NewTrainer builds a trainer over the given containers. interval is the
// sweep period (minimum 1ms is enforced at Start); threshold is the
// minimum pending-delta size that makes a shard eligible (minimum 1).
// onErr, when non-nil, observes retrain failures (e.g. a server log).
func NewTrainer(interval time.Duration, threshold int, onErr func(error), targets ...Retrainable) *Trainer {
	if threshold < 1 {
		threshold = 1
	}
	return &Trainer{
		targets:   targets,
		interval:  interval,
		threshold: threshold,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		onErr:     onErr,
	}
}

// Start launches the background loop. The goroutine exits when ctx is
// cancelled or Stop is called; Stop waits for it.
func (t *Trainer) Start(ctx context.Context) {
	if t.interval < time.Millisecond {
		t.interval = time.Millisecond
	}
	ctx, t.cancel = context.WithCancel(ctx)
	go t.loop(ctx)
}

// loop is the trainer goroutine: tick or kick, then one sweep. The
// context is the single exit path, so the goroutine cannot leak.
func (t *Trainer) loop(ctx context.Context) {
	defer close(t.done)
	ticker := time.NewTicker(t.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		case <-t.kick:
		}
		t.Sweep()
	}
}

// Stop cancels the loop and waits for the goroutine to exit. Safe to call
// once after Start; a Trainer that was never started must not be stopped.
func (t *Trainer) Stop() {
	t.cancel()
	<-t.done
}

// Kick requests an immediate sweep without waiting for the next tick
// (non-blocking; coalesces with an already-pending kick).
func (t *Trainer) Kick() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// Sweep synchronously retrains the stalest eligible shard of every target.
// Exported so tests and shutdown paths can drain deltas deterministically.
func (t *Trainer) Sweep() {
	t.sweeps.Add(1)
	for _, target := range t.targets {
		s := target.StalestShard(t.threshold)
		if s < 0 {
			continue
		}
		t0 := time.Now()
		if err := target.RetrainShard(s); err != nil {
			t.errors.Add(1)
			if t.onErr != nil {
				t.onErr(err)
			}
			continue
		}
		t.retrains.Add(1)
		t.lastSecs.Store(floatBits(time.Since(t0).Seconds()))
	}
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Stats returns the trainer's counters.
func (t *Trainer) Stats() TrainerStats {
	return TrainerStats{
		Sweeps:   t.sweeps.Load(),
		Retrains: t.retrains.Load(),
		Errors:   t.errors.Load(),
		LastSecs: floatFromBits(t.lastSecs.Load()),
	}
}
