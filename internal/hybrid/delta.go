package hybrid

import (
	"sync"
	"time"

	"setlearn/internal/sets"
)

// Delta is the exact write-side companion of a learned structure: an
// append-only list of sets inserted after the model was trained. It is the
// §7.2 auxiliary idea applied to whole sets instead of evicted subsets —
// the learned model keeps answering for the trained bulk while every query
// is composed with an exact answer over the delta, so answers are correct
// the instant an insert returns and stay correct until a background retrain
// absorbs the entries into a fresh model.
//
// The entries carry an element → posting-list index (the GIN layout of the
// paper's Table 12 baseline, see internal/pgsim): a read walks only the
// posting list of the query's rarest element and verifies each candidate,
// and a write appends one posting per element of the inserted set. Reads
// take the read lock only, so concurrent queries never serialize on each
// other; Add is the only writer. Entries are never removed from a live
// Delta — a retrain builds a *new* Delta holding only the unabsorbed tail
// and swaps it in together with the new model, which is what lets a query
// that loaded the old (model, delta) pair keep a complete, consistent view.
type Delta struct {
	mu      sync.RWMutex
	entries []DeltaEntry
	// post maps an element id to the indexes into entries of the sets
	// holding it, in ascending append order. A map rather than a slice
	// indexed by id: ids are arbitrary uint32s. Rebuilt on load, never
	// persisted.
	post  map[uint32][]int32
	first time.Time // arrival of the oldest entry, for staleness scoring
	maxID uint32
}

// DeltaEntry is one inserted set with its assigned global position.
// Structures without position semantics (estimator, filter) carry a
// synthetic monotone position so persistence and ordering stay uniform.
type DeltaEntry struct {
	Pos int
	Set sets.Set
}

// NewDelta returns an empty delta.
func NewDelta() *Delta { return NewDeltaFrom(nil) }

// NewDeltaFrom returns a delta holding the given entries (used by retrain
// to carry the unabsorbed tail into the swapped-in state, and by loaders).
func NewDeltaFrom(entries []DeltaEntry) *Delta {
	d := &Delta{entries: entries, post: make(map[uint32][]int32)}
	for i, en := range entries {
		d.index(en.Set, i)
	}
	if len(entries) > 0 {
		d.first = time.Now()
	}
	return d
}

// Add appends one inserted set.
func (d *Delta) Add(s sets.Set, pos int) {
	d.mu.Lock()
	if len(d.entries) == 0 {
		d.first = time.Now()
	}
	d.entries = append(d.entries, DeltaEntry{Pos: pos, Set: s})
	d.index(s, len(d.entries)-1)
	d.mu.Unlock()
}

// index records entry i (holding s) in the posting lists and in maxID. The
// caller holds the write lock or owns d exclusively.
func (d *Delta) index(s sets.Set, i int) {
	for _, e := range s {
		d.post[e] = append(d.post[e], int32(i))
	}
	if n := len(s); n > 0 && s[n-1] > d.maxID {
		d.maxID = s[n-1]
	}
}

// rarest returns the shortest posting list among q's elements — a superset
// of the entries that can contain q — or nil if some element of q is in no
// entry. q is non-empty; the caller holds the read lock.
func (d *Delta) rarest(q sets.Set) []int32 {
	best := d.post[q[0]]
	for _, e := range q[1:] {
		if len(best) == 0 {
			return nil
		}
		if l := d.post[e]; len(l) < len(best) {
			best = l
		}
	}
	return best
}

// Len returns the number of pending entries.
func (d *Delta) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Age returns how long the oldest pending entry has been waiting, or 0 for
// an empty delta.
func (d *Delta) Age() time.Duration {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.entries) == 0 {
		return 0
	}
	return time.Since(d.first)
}

// MaxID returns the largest element id across pending entries (0 if empty).
func (d *Delta) MaxID() uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.maxID
}

// Snapshot copies the current entries; the prefix up to the returned length
// is stable because entries are append-only.
func (d *Delta) Snapshot() []DeltaEntry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]DeltaEntry(nil), d.entries...)
}

// Tail copies the entries from index cut onward — the inserts that landed
// while a retrain was building over the first cut entries.
func (d *Delta) Tail(cut int) []DeltaEntry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if cut >= len(d.entries) {
		return nil
	}
	return append([]DeltaEntry(nil), d.entries[cut:]...)
}

// FirstPos returns the smallest position among entries matching q — superset
// entries for subset search, exactly-equal entries when equal is set — or -1.
// Entries are exact, so this is the index task's aux fan-in contribution.
// Positions are not monotone in append order (concurrent inserts race to
// the lock), so every candidate on the rarest posting list is checked.
//
//lint:hotpath
func (d *Delta) FirstPos(q sets.Set, equal bool) int {
	if len(q) == 0 {
		return -1
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.entries) == 0 {
		return -1
	}
	best := -1
	for _, i := range d.rarest(q) {
		en := &d.entries[i]
		if best >= 0 && en.Pos >= best {
			continue // cannot lower the minimum; skip the verification
		}
		var hit bool
		if equal {
			hit = en.Set.Equal(q)
		} else {
			hit = en.Set.ContainsAll(q)
		}
		if hit {
			best = en.Pos
		}
	}
	return best
}

// Count returns the number of entries containing q — the exact additive
// contribution of pending inserts to a cardinality estimate.
//
//lint:hotpath
func (d *Delta) Count(q sets.Set) float64 {
	if len(q) == 0 {
		return 0
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.entries) == 0 {
		return 0
	}
	if len(q) == 1 {
		return float64(len(d.post[q[0]]))
	}
	n := 0
	for _, i := range d.rarest(q) {
		if d.entries[i].Set.ContainsAll(q) {
			n++
		}
	}
	return float64(n)
}

// Contains reports whether q is a subset of some pending entry — the
// membership task's exact OR contribution.
//
//lint:hotpath
func (d *Delta) Contains(q sets.Set) bool {
	if len(q) == 0 {
		return false // defer to the structure's empty-set convention
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.entries) == 0 {
		return false
	}
	for _, i := range d.rarest(q) {
		if d.entries[i].Set.ContainsAll(q) {
			return true
		}
	}
	return false
}

// Footprint constants for SizeBytes: an entry is a Pos plus a slice header;
// a posting-list key costs its uint32 id, its slice header and roughly a
// pointer's worth of map bucket overhead.
const (
	deltaEntryBytes   = 8 + 24
	deltaPostKeyBytes = 4 + 24 + 8
)

// SizeBytes estimates the delta footprint: entry headers plus element ids,
// and the posting-list index (4 bytes per posting plus per-key overhead).
func (d *Delta) SizeBytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	total := 0
	for _, en := range d.entries {
		total += deltaEntryBytes + 4*len(en.Set)
	}
	for _, l := range d.post {
		total += deltaPostKeyBytes + 4*len(l)
	}
	return total
}
