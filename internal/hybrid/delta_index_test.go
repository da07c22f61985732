package hybrid

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// The delta answers reads from an element → posting-list index. These
// tests pin it against a brute-force linear scan that exists only here.

func scanCount(es []DeltaEntry, q sets.Set) float64 {
	if len(q) == 0 {
		return 0
	}
	n := 0
	for _, en := range es {
		if en.Set.ContainsAll(q) {
			n++
		}
	}
	return float64(n)
}

func scanContains(es []DeltaEntry, q sets.Set) bool { return scanCount(es, q) > 0 }

func scanFirstPos(es []DeltaEntry, q sets.Set, equal bool) int {
	if len(q) == 0 {
		return -1
	}
	best := -1
	for _, en := range es {
		hit := en.Set.ContainsAll(q)
		if equal {
			hit = en.Set.Equal(q)
		}
		if hit && (best < 0 || en.Pos < best) {
			best = en.Pos
		}
	}
	return best
}

// rwEntries draws n RW-Zipf inserts over vocab ids. Every seventh entry
// repeats an earlier set, and positions are a shuffled range, so
// FirstPos's minimum cannot be read off append order.
func rwEntries(n, vocab int, seed int64) []DeltaEntry {
	rng := rand.New(rand.NewSource(seed))
	c := dataset.GenerateRW(n, vocab, seed)
	pos := rng.Perm(n)
	out := make([]DeltaEntry, n)
	for i := range out {
		s := c.At(i)
		if i > 0 && i%7 == 0 {
			s = out[rng.Intn(i)].Set
		}
		out[i] = DeltaEntry{Pos: 1000 + pos[i], Set: s}
	}
	return out
}

// deltaQueries mixes subsets of inserted sets (hits), whole inserted sets
// (equality hits), random singles, pairs and triples over the vocabulary
// (mostly misses past the Zipf head), ids above the delta's MaxID, and the
// empty query.
func deltaQueries(es []DeltaEntry, vocab int, seed int64) []sets.Set {
	rng := rand.New(rand.NewSource(seed))
	qs := []sets.Set{sets.New(), sets.New(^uint32(0)), sets.New(1, ^uint32(0))}
	for i := 0; i < 300; i++ {
		s := es[rng.Intn(len(es))].Set
		k := 1 + rng.Intn(3)
		if k > len(s) {
			k = len(s)
		}
		ids := make([]uint32, 0, k)
		for _, j := range rng.Perm(len(s))[:k] {
			ids = append(ids, s[j])
		}
		qs = append(qs, sets.New(ids...), s)
		r := make([]uint32, k)
		for j := range r {
			r[j] = uint32(rng.Intn(vocab + 20)) // some ids above MaxID
		}
		qs = append(qs, sets.New(r...))
	}
	return qs
}

func checkAgainstScan(t *testing.T, name string, d *Delta, es []DeltaEntry, qs []sets.Set) {
	t.Helper()
	for _, q := range qs {
		if got, want := d.Count(q), scanCount(es, q); got != want {
			t.Fatalf("%s: Count(%v) = %g, want %g", name, q, got, want)
		}
		if got, want := d.Contains(q), scanContains(es, q); got != want {
			t.Fatalf("%s: Contains(%v) = %v, want %v", name, q, got, want)
		}
		for _, equal := range []bool{false, true} {
			if got, want := d.FirstPos(q, equal), scanFirstPos(es, q, equal); got != want {
				t.Fatalf("%s: FirstPos(%v, equal=%v) = %d, want %d", name, q, equal, got, want)
			}
		}
	}
}

func TestDeltaMatchesScan(t *testing.T) {
	const vocab = 400
	for _, n := range []int{1, 64, 1000} {
		es := rwEntries(n, vocab, int64(n))
		qs := deltaQueries(es, vocab, int64(n)+1)

		added := NewDelta()
		for _, en := range es {
			added.Add(en.Set, en.Pos)
		}
		checkAgainstScan(t, fmt.Sprintf("Add/%d", n), added, es, qs)
		checkAgainstScan(t, fmt.Sprintf("NewDeltaFrom/%d", n), NewDeltaFrom(added.Snapshot()), es, qs)
		for _, cut := range []int{0, 1, n / 3, n - 1, n} {
			tail := added.Tail(cut)
			checkAgainstScan(t, fmt.Sprintf("Tail(%d)/%d", cut, n), NewDeltaFrom(tail), tail, qs)
		}
	}
}

// TestDeltaConcurrentAddRead checks that readers racing Add see answers
// move only forward: Count never drops, Contains never reverts to false,
// and FirstPos, once found, never rises. Run under -race.
func TestDeltaConcurrentAddRead(t *testing.T) {
	const (
		vocab   = 300
		writers = 4
		readers = 4
	)
	es := rwEntries(1200, vocab, 5)
	qs := deltaQueries(es, vocab, 6)[:120]
	d := NewDelta()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(es); i += writers {
				d.Add(es[i].Set, es[i].Pos)
			}
		}(w)
	}
	done := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			count := make([]float64, len(qs))
			contains := make([]bool, len(qs))
			first := make([]int, len(qs))
			for i := range first {
				first[i] = -1
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, q := range qs {
					c, in, p := d.Count(q), d.Contains(q), d.FirstPos(q, false)
					if c < count[i] {
						t.Errorf("Count(%v) dropped %g → %g", q, count[i], c)
						return
					}
					if contains[i] && !in {
						t.Errorf("Contains(%v) reverted to false", q)
						return
					}
					if first[i] >= 0 && (p < 0 || p > first[i]) {
						t.Errorf("FirstPos(%v) rose %d → %d", q, first[i], p)
						return
					}
					count[i], contains[i], first[i] = c, in, p
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	checkAgainstScan(t, "final", d, es, qs)
}

// TestDeltaReadsZeroAlloc pins the three read paths allocation-free at 1k
// pending inserts, the run-time twin of their //lint:hotpath roots.
func TestDeltaReadsZeroAlloc(t *testing.T) {
	es := rwEntries(1000, 400, 9)
	d := NewDeltaFrom(es)
	qs := deltaQueries(es, 400, 10)
	for _, r := range []struct {
		name string
		read func(sets.Set)
	}{
		{"Count", func(q sets.Set) { d.Count(q) }},
		{"Contains", func(q sets.Set) { d.Contains(q) }},
		{"FirstPos", func(q sets.Set) { d.FirstPos(q, false) }},
		{"FirstPosEqual", func(q sets.Set) { d.FirstPos(q, true) }},
	} {
		if n := testing.AllocsPerRun(20, func() {
			for _, q := range qs {
				r.read(q)
			}
		}); n != 0 {
			t.Errorf("%s allocates %.1f times per pass, want 0", r.name, n)
		}
	}
}

func TestDeltaSizeBytesCountsPostings(t *testing.T) {
	d := NewDelta()
	if d.SizeBytes() != 0 {
		t.Fatalf("empty delta SizeBytes = %d, want 0", d.SizeBytes())
	}
	d.Add(sets.New(1, 2, 3), 0)
	d.Add(sets.New(2, 3, 4), 1)
	// Two entries of three ids each; four keys holding six postings.
	want := 2*(deltaEntryBytes+3*4) + 4*deltaPostKeyBytes + 6*4
	if got := d.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	// A set over existing keys adds its entry and one posting per id.
	d.Add(sets.New(2, 3), 2)
	want += deltaEntryBytes + 2*4 + 2*4
	if got := d.SizeBytes(); got != want {
		t.Fatalf("SizeBytes after repeat keys = %d, want %d", got, want)
	}
	if got := NewDeltaFrom(d.Snapshot()).SizeBytes(); got != want {
		t.Fatalf("rebuilt SizeBytes = %d, want %d", got, want)
	}
}

var (
	sinkCount float64
	sinkPos   int
	sinkHit   bool
)

// BenchmarkDelta times each delta operation at 0, 64, 1k and 10k pending
// RW-Zipf inserts. Reads cycle through subsets of held-out RW sets. The add
// case appends onto the pre-filled delta, so the delta grows by b.N.
func BenchmarkDelta(b *testing.B) {
	const vocab = 2000
	stream := rwEntries(10000, vocab, 1)
	pool := deltaQueries(rwEntries(500, vocab, 2), vocab, 3)
	for _, op := range []string{"count", "firstpos", "contains", "add"} {
		for _, n := range []struct {
			label string
			n     int
		}{{"0", 0}, {"64", 64}, {"1k", 1000}, {"10k", 10000}} {
			b.Run(op+"/"+n.label, func(b *testing.B) {
				d := NewDeltaFrom(append([]DeltaEntry(nil), stream[:n.n]...))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := pool[i%len(pool)]
					switch op {
					case "count":
						sinkCount = d.Count(q)
					case "firstpos":
						sinkPos = d.FirstPos(q, false)
					case "contains":
						sinkHit = d.Contains(q)
					case "add":
						en := stream[i%len(stream)]
						d.Add(en.Set, en.Pos)
					}
				}
			})
		}
	}
}
