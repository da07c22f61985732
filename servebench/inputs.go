package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// Collection and training sizes shared by every workload (variables only
// so the tests can shrink them). Training uses a fixed worker count, so the
// trained structures — and with them every accuracy and size metric — are
// a function of the seed alone.
var (
	numSets   = 2000
	vocab     = 2000
	epochs    = 3
	poolSize  = 2048  // distinct read queries: half trained, half held-out
	curveSets = 10000 // inserts generated beyond the collection, for the delta-scan curve
)

const (
	maxSubset = 2
	workers   = 2 // training workers, client connections and senders
	numShards = 8
	batchSize = 64 // queries per request on batched workloads
)

// Endpoints, in the order the op mix rotates through them.
const (
	epCard = iota
	epIndex
	epMember
	epInsert
	numEndpoints
)

var epNames = [numEndpoints]string{"card", "index", "member", "insert"}
var epPaths = [numEndpoints]string{"/v1/card", "/v1/index", "/v1/member", "/v1/insert"}

// workload is one traffic mix against one structure layout. Every phase is
// an operation count, never a wall-clock cut-off, so the pending-insert
// count at each operation repeats.
type workload struct {
	name    string
	why     string
	sharded bool // K=8 cluster-partitioned containers instead of monoliths
	batch   int  // queries per read request
	insert  int  // every insert-th mix operation is an /v1/insert; 0 = none
	closed  int  // closed-loop operations per 10 s of --seconds
	serial  int  // sequential (latency) operations per 10 s of --seconds
	tail    int  // write-tail inserts per 10 s of --seconds (workloads with insert == 0)
}

var workloads = []workload{
	{
		name: "point_mono", why: "single queries on monoliths: transport and JSON dominate",
		batch: 1, closed: 40000, serial: 20000, tail: 6000,
	},
	{
		name: "batch_shard", why: "64-query batches on K=8 shards: fan-out and the model dominate",
		sharded: true, batch: batchSize, closed: 7000, serial: 3500, tail: 6000,
	},
	{
		name: "write_mix", why: "one insert in five on monoliths: the delta scan dominates late",
		batch: 1, insert: 5, closed: 23000, serial: 10000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// template is one pre-encoded read request: an endpoint and its queries.
type template struct {
	ep      int
	queries []sets.Set
	body    []byte
}

// inputs are everything a run sends, all derived from the seed.
type inputs struct {
	coll    *sets.Collection
	pool    []sets.Set      // read queries; the first half are trained subsets
	heldOut map[string]bool // keys of the pool queries no model trained on
	reads   []template      // read templates: the pool on every read endpoint
	stream  []sets.Set      // realistic insert stream: the write mix, the delta-scan curve, spares
	sent    []sets.Set      // sets sent to /v1/insert, by insert index: a prefix of stream
	insBody [][]byte        // pre-encoded /v1/insert bodies, by insert index
	rowBody [][]byte        // pre-encoded reads of each inserted set (read-own-write or read-back), endpoint index%3
	ops     []int           // mix: template index ≥ 0, or opInsertRead
}

// collection generates the served collection for seed.
func collection(seed int64) *sets.Collection {
	return dataset.GenerateRW(numSets, vocab, seed)
}

// upTo returns the indexes 0..n-1.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// makeInputs derives the query pool, the insert stream and the mix for w
// from seed: nOps mix operations and nTail write-tail inserts.
func makeInputs(w workload, seed int64, coll *sets.Collection, nOps, nTail int) *inputs {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7b))
	in := &inputs{coll: coll}
	var trained int
	in.pool, trained = queryPool(coll, rng)
	in.heldOut = map[string]bool{}
	for _, q := range in.pool[trained:] {
		in.heldOut[q.Key()] = true
	}

	// Read templates: every pool query on every read endpoint, as single
	// queries or as fixed 64-query batches over a shuffled pool.
	for ep := epCard; ep <= epMember; ep++ {
		if w.batch == 1 {
			for _, q := range in.pool {
				in.reads = append(in.reads, newTemplate(ep, []sets.Set{q}))
			}
			continue
		}
		perm := rng.Perm(len(in.pool))
		for lo := 0; lo+w.batch <= len(perm); lo += w.batch {
			qs := make([]sets.Set, w.batch)
			for i := range qs {
				qs[i] = in.pool[perm[lo+i]]
			}
			in.reads = append(in.reads, newTemplate(ep, qs))
		}
	}

	// The insert stream: fresh sets from the same generator, restricted to
	// element ids the models know (the server rejects larger ones). It is
	// long enough for the mix, the delta-scan curve and the traced run's
	// spare in-process inserts, which come from its end.
	nSent := nTail
	if w.insert > 0 {
		nSent = nOps/w.insert + 1
	}
	maxID := coll.MaxID()
	for _, s := range dataset.GenerateRW(max(curveSets, nSent)+probeInserts+numSets/4, vocab, seed^0x1a5e).Sets {
		var ids []uint32
		for _, id := range s {
			if id <= maxID {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			in.stream = append(in.stream, sets.New(ids...))
		}
	}
	in.sent = in.stream[:min(nSent, len(in.stream)-probeInserts)]
	for _, s := range in.sent {
		in.insBody = append(in.insBody, mustJSON(map[string][]uint32{"set": s}))
		in.rowBody = append(in.rowBody, queryBody([]sets.Set{s}))
	}

	// The mix: a seeded sequence of templates with every insert-th slot an
	// insert, so the pending count at operation i is the same in every run.
	in.ops = make([]int, nOps)
	for i := range in.ops {
		if w.insert > 0 && i%w.insert == w.insert-1 {
			in.ops[i] = opInsertRead
			continue
		}
		in.ops[i] = rng.Intn(len(in.reads))
	}
	return in
}

// queryPool draws poolSize distinct queries: half are subsets of size
// 1..maxSubset of collection sets (trained: the models saw every one),
// half are held out — a quarter subsets of size maxSubset+1 of collection
// sets, a quarter random combinations of collection elements that occur in
// no training subset.
func queryPool(c *sets.Collection, rng *rand.Rand) ([]sets.Set, int) {
	trainedSubs := dataset.CollectSubsets(c, maxSubset)
	seen := map[string]bool{}
	var pool []sets.Set
	add := func(q sets.Set) bool {
		k := q.Key()
		if seen[k] {
			return false
		}
		seen[k] = true
		pool = append(pool, q)
		return true
	}
	subsetOf := func(s sets.Set, k int) sets.Set {
		perm := rng.Perm(len(s))
		ids := make([]uint32, k)
		for i := range ids {
			ids[i] = s[perm[i]]
		}
		return sets.New(ids...)
	}
	for len(pool) < poolSize/2 {
		s := c.Sets[rng.Intn(c.Len())]
		add(subsetOf(s, 1+rng.Intn(min(len(s), maxSubset))))
	}
	trained := len(pool)
	for len(pool) < trained+poolSize/4 {
		s := c.Sets[rng.Intn(c.Len())]
		if len(s) > maxSubset {
			add(subsetOf(s, maxSubset+1))
		}
	}
	for len(pool) < poolSize {
		k := 2 + rng.Intn(maxSubset)
		ids := make([]uint32, 0, k)
		for len(ids) < k {
			s := c.Sets[rng.Intn(c.Len())]
			ids = append(ids, s[rng.Intn(len(s))])
		}
		q := sets.New(ids...)
		if len(q) == k && !trainedSubs.Contains(q) {
			add(q)
		}
	}
	return pool, trained
}

func newTemplate(ep int, qs []sets.Set) template {
	return template{ep: ep, queries: qs, body: queryBody(qs)}
}

// queryBody encodes a read request, the same on every read endpoint:
// "query" for one set, "queries" for more.
func queryBody(qs []sets.Set) []byte {
	if len(qs) == 1 {
		return mustJSON(map[string][]uint32{"query": qs[0]})
	}
	ids := make([][]uint32, len(qs))
	for i, q := range qs {
		ids[i] = q
	}
	return mustJSON(map[string][][]uint32{"queries": ids})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("servebench: encode request: %v", err))
	}
	return b
}

// truth is the exact answer for one query over the collection plus a set
// of acknowledged inserts.
type truth struct {
	card  int
	first int // first position, -1 when q is in no set
}

// exactTruth scans the collection and the inserts (with their served
// positions) for q.
func exactTruth(c *sets.Collection, ins []sets.Set, pos []int, q sets.Set) truth {
	t := truth{first: -1}
	for i, s := range c.Sets {
		if s.ContainsAll(q) {
			if t.first < 0 {
				t.first = i
			}
			t.card++
		}
	}
	for j, s := range ins {
		if s.ContainsAll(q) {
			if t.first < 0 || pos[j] < t.first {
				t.first = pos[j]
			}
			t.card++
		}
	}
	return t
}

// insertIndex maps an element id to the inserts holding it, so the
// inserts containing a query are found by scanning the rarest element's
// list.
type insertIndex map[uint32][]int

func newInsertIndex(ins []sets.Set) insertIndex {
	ix := insertIndex{}
	for j, s := range ins {
		for _, id := range s {
			ix[id] = append(ix[id], j)
		}
	}
	return ix
}

// containing returns the indexes of the inserts that contain q, ascending.
func (ix insertIndex) containing(ins []sets.Set, q sets.Set) []int {
	var shortest []int
	for i, id := range q {
		l := ix[id]
		if i == 0 || len(l) < len(shortest) {
			shortest = l
		}
	}
	var out []int
	for _, j := range shortest {
		if ins[j].ContainsAll(q) {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}
