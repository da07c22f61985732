package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"setlearn/internal/core"
	"setlearn/internal/server"
	"setlearn/internal/sets"
)

// answers holds one request's answers for whichever endpoint it hit.
type answers struct {
	cards []float64
	poss  []int
	mems  []bool
}

type reply struct {
	Estimate  *float64  `json:"estimate"`
	Estimates []float64 `json:"estimates"`
	Position  *int      `json:"position"`
	Positions []int     `json:"positions"`
	Member    *bool     `json:"member"`
	Members   []bool    `json:"members"`
}

func parseReply(body []byte) (answers, error) {
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return answers{}, err
	}
	a := answers{cards: r.Estimates, poss: r.Positions, mems: r.Members}
	if r.Estimate != nil {
		a.cards = []float64{*r.Estimate}
	}
	if r.Position != nil {
		a.poss = []int{*r.Position}
	}
	if r.Member != nil {
		a.mems = []bool{*r.Member}
	}
	return a, nil
}

// reference answers qs on ep exactly as the server's handler does.
func reference(st server.Structures, ep int, qs []sets.Set) answers {
	switch ep {
	case epCard:
		return answers{cards: st.Estimator.EstimateBatch(nil, qs)}
	case epIndex:
		return answers{poss: st.Index.LookupBatch(nil, qs, false)}
	default:
		return answers{mems: st.Filter.ContainsBatch(qs, 1)}
	}
}

func equalAnswers(a, b answers) bool {
	if len(a.cards) != len(b.cards) || len(a.poss) != len(b.poss) || len(a.mems) != len(b.mems) {
		return false
	}
	for i := range a.cards {
		if math.Float64bits(a.cards[i]) != math.Float64bits(b.cards[i]) {
			return false
		}
	}
	for i := range a.poss {
		if a.poss[i] != b.poss[i] {
			return false
		}
	}
	for i := range a.mems {
		if a.mems[i] != b.mems[i] {
			return false
		}
	}
	return true
}

// verdict is the outcome of checking a run's records.
type verdict struct {
	attempted, failed int
	phaseSent         [numPhases]int
	phaseFailed       [numPhases]int
	mismatches        []string // first few, for the log
	memberFN          int      // false negatives within maxSubset
	qerr              []float64
	idxExact, idxN    int
	fp, negatives     int
	// The same accuracy over held-out queries alone, for the summary.
	heldQerr         []float64
	heldExact, heldN int
}

func (v *verdict) fail(r *record, why string) {
	v.failed++
	v.phaseFailed[r.phase]++
	if len(v.mismatches) < 5 {
		v.mismatches = append(v.mismatches, fmt.Sprintf("%s %s: %s", phaseNames[r.phase], epNames[r.ep], why))
	}
}

// checker verifies every record against the in-process reference.
type checker struct {
	in     *inputs
	ref    server.Structures
	base   []answers // per read template, without inserts
	rowRef []answers // per insert, its read-own-write query without inserts
	ix     insertIndex
	inC    map[string][]int // query key → sent inserts containing it
	truths map[string]truth // query key → exact truth at the accuracy pass
}

func newChecker(in *inputs, ref server.Structures) *checker {
	ck := &checker{in: in, ref: ref}
	ck.base = make([]answers, len(in.reads))
	for t, tm := range in.reads {
		ck.base[t] = reference(ref, tm.ep, tm.queries)
	}
	ck.rowRef = make([]answers, len(in.insBody))
	for j := range in.insBody {
		ck.rowRef[j] = reference(ref, j%3, []sets.Set{in.sent[j]})
	}
	ck.ix = newInsertIndex(in.sent)
	ck.inC = map[string][]int{}
	ck.truths = map[string]truth{}
	return ck
}

// check verifies recs and scores the accuracy pass. Reads outside the
// write tail are compared with the reference plus the inserts that could
// have been applied when the read was served: those acknowledged before it
// was sent certainly were, those sent after it completed certainly were
// not, and every combination of the overlapping ones is accepted. The write
// tail is replayed in order on the reference itself, so it must run last.
func (ck *checker) check(recs []record) verdict {
	var v verdict
	in := ck.in
	// Acknowledged inserts outside the write tail, by insert index, with
	// the positions the server assigned them: each must be a distinct slot
	// after the collection.
	byIns := map[int32]*record{}
	pos := make([]int, len(in.insBody))
	taken := map[int]bool{}
	for i := range recs {
		r := &recs[i]
		if r.ins >= 0 && !r.row && r.status == http.StatusOK && r.phase != phaseTail {
			p, err := parseInsert(r.body)
			if err != nil {
				continue // failed below, when its record is checked
			}
			if p < in.coll.Len() || p >= in.coll.Len()+len(in.sent) || taken[p] {
				v.fail(r, fmt.Sprintf("insert position %d is not a fresh slot after the collection", p))
				continue
			}
			taken[p] = true
			pos[r.ins], byIns[r.ins] = p, r
		}
	}

	var tail []*record
	for i := range recs {
		r := &recs[i]
		v.attempted++
		v.phaseSent[r.phase]++
		if r.status != http.StatusOK {
			v.fail(r, fmt.Sprintf("status %d: %.200s", r.status, r.body))
			continue
		}
		if r.phase == phaseTail {
			tail = append(tail, r)
			continue
		}
		if r.ins >= 0 && !r.row {
			// An insert outside the tail: its position is checked by the
			// reads that see it.
			if _, err := parseInsert(r.body); err != nil {
				v.fail(r, err.Error())
			}
			continue
		}
		got, err := parseReply(r.body)
		if err != nil {
			v.fail(r, err.Error())
			continue
		}
		var qs []sets.Set
		var base answers
		if r.row {
			qs, base = []sets.Set{in.sent[r.ins]}, ck.rowRef[r.ins]
		} else {
			qs, base = in.reads[r.tmpl].queries, ck.base[r.tmpl]
		}
		if !ck.matches(int(r.ep), qs, base, got, r, byIns, pos) {
			v.fail(r, fmt.Sprintf("answer %s differs from the reference", r.body))
			continue
		}
		if r.phase == phaseAccuracy {
			ck.score(&v, int(r.ep), qs, got, byIns, pos)
		}
	}
	ck.replayTail(&v, tail)
	return v
}

// matches reports whether got is a possible answer for a read r of qs.
func (ck *checker) matches(ep int, qs []sets.Set, base, got answers, r *record, byIns map[int32]*record, pos []int) bool {
	if len(byIns) == 0 {
		return equalAnswers(base, got)
	}
	if len(got.cards) != len(base.cards) || len(got.poss) != len(base.poss) || len(got.mems) != len(base.mems) {
		return false
	}
	for i, q := range qs {
		var certain, maybe []int // insert stream indexes containing q
		for _, j := range ck.containing(q) {
			ir := byIns[int32(j)]
			switch {
			case ir == nil || ir.sent > r.done:
			case ir.done < r.sent:
				certain = append(certain, j)
			default:
				maybe = append(maybe, j)
			}
		}
		if !admissible(ep, base, got, i, certain, maybe, pos) {
			return false
		}
	}
	return true
}

// admissible reports whether got's i-th answer is base's i-th answer plus
// the exact effect of every certain insert and of some subset of the maybe
// inserts, by the delta's contract: a count adds the inserts containing the
// query, an index answer is the smallest position among the learned answer
// and those inserts, and membership holds if any insert contains the query.
// Each endpoint needs only a linear pass: a count fixes how many maybe
// inserts applied, the smallest position of any subset is that of one of
// its members, and one maybe insert is enough to make membership hold.
func admissible(ep int, base, got answers, i int, certain, maybe []int, pos []int) bool {
	switch ep {
	case epCard:
		for n := len(certain); n <= len(certain)+len(maybe); n++ {
			want := base.cards[i]
			if n > 0 {
				want += float64(n)
			}
			if math.Float64bits(want) == math.Float64bits(got.cards[i]) {
				return true
			}
		}
		return false
	case epIndex:
		first := base.poss[i]
		for _, j := range certain {
			first = lowerPos(first, pos[j])
		}
		if got.poss[i] == first {
			return true
		}
		for _, j := range maybe {
			if got.poss[i] == lowerPos(first, pos[j]) {
				return true
			}
		}
		return false
	default:
		want := base.mems[i] || len(certain) > 0
		return got.mems[i] == want || (got.mems[i] && len(maybe) > 0)
	}
}

// lowerPos returns the smaller of two index answers, where -1 means none.
func lowerPos(a, b int) int {
	if a < 0 || (b >= 0 && b < a) {
		return b
	}
	return a
}

// replayTail applies the write tail's inserts to the reference in the
// order of the positions the server assigned them, checking that those are
// consecutive, then checks the read-backs sent after the tail against the
// result. The final state does not depend on the order in which the two
// senders' inserts interleaved, apart from the positions replayed here.
func (ck *checker) replayTail(v *verdict, tail []*record) {
	type ack struct {
		r   *record
		pos int
	}
	var acks []ack
	var reads []*record
	for _, r := range tail {
		if r.row {
			reads = append(reads, r)
			continue
		}
		p, err := parseInsert(r.body)
		if err != nil {
			v.fail(r, err.Error())
			continue
		}
		acks = append(acks, ack{r, p})
	}
	sort.Slice(acks, func(a, b int) bool { return acks[a].pos < acks[b].pos })
	targets := []core.Inserter{
		ck.ref.Index.(core.Inserter), ck.ref.Estimator.(core.Inserter), ck.ref.Filter.(core.Inserter),
	}
	for _, a := range acks {
		s := ck.in.sent[a.r.ins]
		want := targets[0].InsertSet(s)
		for _, t := range targets[1:] {
			t.InsertSet(s)
		}
		if a.pos != want {
			v.fail(a.r, fmt.Sprintf("insert position %d, reference %d", a.pos, want))
		}
	}
	for _, r := range reads {
		got, err := parseReply(r.body)
		if err != nil {
			v.fail(r, err.Error())
			continue
		}
		if want := reference(ck.ref, int(r.ep), []sets.Set{ck.in.sent[r.ins]}); !equalAnswers(want, got) {
			v.fail(r, fmt.Sprintf("read-back answer %s differs from the reference", r.body))
		}
	}
}

func parseInsert(body []byte) (int, error) {
	var r struct {
		Position *int `json:"position"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	if r.Position == nil {
		return 0, fmt.Errorf("insert reply without a position: %s", body)
	}
	return *r.Position, nil
}

// containing returns the stream indexes of the sent inserts containing q.
func (ck *checker) containing(q sets.Set) []int {
	k := q.Key()
	js, ok := ck.inC[k]
	if !ok {
		js = ck.ix.containing(ck.in.sent, q)
		ck.inC[k] = js
	}
	return js
}

// truthOf returns the exact answer for q over the collection and the
// inserts acknowledged outside the write tail, which precedes the tail.
func (ck *checker) truthOf(q sets.Set, byIns map[int32]*record, pos []int) truth {
	k := q.Key()
	if t, ok := ck.truths[k]; ok {
		return t
	}
	var ins []sets.Set
	var at []int
	for _, j := range ck.containing(q) {
		if byIns[int32(j)] != nil {
			ins, at = append(ins, ck.in.sent[j]), append(at, pos[j])
		}
	}
	t := exactTruth(ck.in.coll, ins, at, q)
	ck.truths[k] = t
	return t
}

// score adds one accuracy-pass answer set to the accuracy metrics, against
// exact truth over the collection and the acknowledged inserts.
func (ck *checker) score(v *verdict, ep int, qs []sets.Set, got answers, byIns map[int32]*record, pos []int) {
	for i, q := range qs {
		t := ck.truthOf(q, byIns, pos)
		held := ck.in.heldOut[q.Key()]
		switch ep {
		case epCard:
			if t.card > 0 {
				est := math.Max(got.cards[i], 1)
				tr := float64(t.card)
				v.qerr = append(v.qerr, math.Max(est/tr, tr/est))
				if held {
					v.heldQerr = append(v.heldQerr, v.qerr[len(v.qerr)-1])
				}
			}
		case epIndex:
			exact := got.poss[i] == t.first
			v.idxN++
			if exact {
				v.idxExact++
			}
			if held {
				v.heldN++
				if exact {
					v.heldExact++
				}
			}
		case epMember:
			if t.card == 0 {
				v.negatives++
				if got.mems[i] {
					v.fp++
				}
			} else if !got.mems[i] && len(q) <= maxSubset {
				v.memberFN++
			}
		}
	}
}
