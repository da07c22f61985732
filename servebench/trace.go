package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/deepsets"
	"setlearn/internal/hybrid"
	"setlearn/internal/server"
	"setlearn/internal/sets"
)

// span is one timed call: a layer boundary crossed by the traced run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent int) int {
	return t.add(name, parent, t.now(), 0)
}

func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) add(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent})
	return len(t.spans) - 1
}

// time runs fn inside a span and returns its duration in seconds.
func (t *tracer) time(name string, parent int, fn func()) float64 {
	start := t.now()
	fn()
	end := t.now()
	t.add(name, parent, start, end)
	return float64(end-start) / 1e9
}

// durations returns the durations in µs of the spans named name, divided
// by per (the calls a span covers).
func (t *tracer) durations(name string, per float64) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3/per)
		}
	}
	return out
}

func (t *tracer) p50(name string, per float64) float64 {
	return percentile(sortedCopy(t.durations(name, per)), 50)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Probe sizes for the in-process layer timings.
const (
	probeReqs    = 400 // requests per endpoint
	probeQueries = 512 // single queries per layer
	probeInserts = 384 // spare inserts, split over the handler, alloc and core probes
)

// runTraced is the separate traced run: it builds and serves the workload
// like runEndToEnd (once), sends the same phases with a span around every
// request, then times each layer's public functions in-process from the
// outside. Layers a container hides (the monolith's hybrid and model
// inside a sharded container, and the shard fan-out for monolith
// workloads) are timed on the other layout built from the same collection.
func runTraced(w workload, seed int64, secs int, bin, dir string) (result, error) {
	t0 := time.Now()
	tr := newTracer(t0)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	c := collection(seed)
	setup := tr.begin("setup", -1)
	var b *built
	var err error
	tr.time("build", setup, func() { b, err = build(c, w.sharded, seed) })
	if err != nil {
		return result{}, err
	}
	tr.time("build.save", setup, func() { err = b.save(c, dir) })
	if err != nil {
		return result{}, err
	}
	var d *daemon
	loadS := tr.time("build.load", setup, func() { d, err = startDaemon(bin, b) })
	if err != nil {
		return result{}, err
	}
	tr.end(setup)
	defer d.stop()
	put("build.subsets_s", "s", b.subsetsS)
	put("build.card_s", "s", b.cardS)
	put("build.index_s", "s", b.indexS)
	put("build.member_s", "s", b.memberS)
	put("build.phi_s", "s", b.phiS)
	put("build.save_s", "s", b.saveS)
	put("build.load_s", "s", loadS)

	other, err := build(c, !w.sharded, seed)
	if err != nil {
		return result{}, err
	}
	mono, shd := b.st, other.st
	if w.sharded {
		mono, shd = other.st, b.st
	}
	ref, err := b.loadReference(c)
	if err != nil {
		return result{}, err
	}
	p := plan(w, secs)
	in := makeInputs(w, seed, c, p.closed+p.serial, p.tail)
	ck := newChecker(in, ref)

	// The served phases, traced, plus the round-trip probe and the
	// tracing-overhead blocks.
	s, err := newTraffic(bin, b, d, w, in, t0)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	s.trace(tr)
	cl := s.cl
	procs := runtime.GOMAXPROCS(1)
	cl.sequential(phaseWarm, upTo(min(warmReads, len(in.reads))))
	probe := probeTemplates(in, probeReqs)
	rt := [numEndpoints][]float64{}
	for ep := epCard; ep <= epMember; ep++ {
		n := len(cl.recs)
		cl.sequential(phaseProbe, probe[ep])
		for _, r := range cl.recs[n:] {
			rt[ep] = append(rt[ep], float64(r.done-r.sent)/1e3)
		}
	}
	gc0, err := daemonGCs(d.addr)
	if err != nil {
		return result{}, err
	}
	rate, echoRate := sendMix(s, in, p)
	gc1, err := daemonGCs(d.addr)
	if err != nil {
		return result{}, err
	}
	cl.echo = nil
	cl.sequential(phaseAccuracy, upTo(len(in.reads)))
	s.readBackTail()
	overheadUs, overheadFrac := tracingOverhead(cl, in, tr)
	runtime.GOMAXPROCS(procs)
	s.close()

	recs := s.records()
	v := ck.check(recs)
	// The end-to-end figures in absolute units, as this traced run saw them.
	put("e2e.throughput_rps", "1/s", rate.overall())
	put("echo.throughput_rps", "1/s", echoRate.overall())
	lat, echoLat := latencies(recs), latencies(s.ref.recs)
	for ep := 0; ep < numEndpoints; ep++ {
		put("e2e."+epNames[ep]+"_p50_us", "us", roundsPercentile(lat[ep], 50))
	}
	put("echo.p50_us", "us", roundsPercentile(echoLat[epCard], 50))
	put("gc.cycles_per_kreq", "count", float64(gc1-gc0)/(float64(v.phaseSent[phaseClosed]+v.phaseSent[phaseSerial])/1e3))
	for ph := 0; ph < numPhases; ph++ {
		put("gen.sent."+phaseNames[ph], "count", float64(v.phaseSent[ph]))
		put("gen.failed."+phaseNames[ph], "count", float64(v.phaseFailed[ph]))
	}
	put("trace.overhead_us", "us", overheadUs)
	put("trace.overhead_frac", "frac", overheadFrac)
	for _, r := range recs {
		if r.ep == epInsert && r.status == http.StatusOK {
			rt[epInsert] = append(rt[epInsert], float64(r.done-r.sent)/1e3)
		}
	}

	// In-process layer timings, with the daemon stopped.
	lp, ok := probeLayers(tr, w, in, b.st, mono, shd, probe)
	if !ok {
		v.failed++
		v.mismatches = append(v.mismatches, "in-process handler returned an error status")
	}
	for ep := 0; ep < numEndpoints; ep++ {
		name := epNames[ep]
		h := lp.handler[ep]
		put("server.handler_us."+name, "us", h)
		put("server.self_us."+name, "us", h-lp.core[ep])
		put("server.allocs_per_req."+name, "count", lp.allocs[ep])
		put("server.bytes_per_req."+name, "count", lp.bytes[ep])
		put("http.transport_us."+name, "us", percentile(sortedCopy(rt[ep]), 50)-h)
		if ep != epInsert {
			put("core.call_us."+name, "us", lp.core[ep])
			put("shard.call_us."+name, "us", lp.shardBatch[ep])
			put("shard.single_call_us."+name, "us", lp.shardSingle[ep])
		}
	}
	put("core.insert_us", "us", lp.core[epInsert])
	put("sets.canon_us", "us", lp.canon)
	for i, label := range deltaLabels {
		put("hybrid.delta_scan_us."+label, "us", lp.delta[i])
	}
	put("hybrid.aux_hit_frac", "frac", lp.auxHit)
	put("hybrid.window_len", "count", lp.window)
	put("deepsets.predict_us", "us", lp.predict)
	put("deepsets.predict_batch_us", "us", lp.predictBatch)
	put("deepsets.phi_bytes", "count", lp.phiBytes)

	// Self time per read request of this workload's mix, averaged over the
	// read endpoints: each layer's median time minus the layers it calls.
	self := selfTimes(w, m, lp)
	for _, k := range sortedKeys(self) {
		put("self_us."+k, "us", self[k])
	}
	top := ""
	for _, k := range sortedKeys(self) {
		if top == "" || self[k] > self[top] {
			top = k
		}
	}

	fmt.Printf("traced run %s (seed %d): closed-loop requests/s, traced: daemon %.0f, echo %.0f\n", w.name, seed, rate.overall(), echoRate.overall())
	fmt.Printf("self time per read request (us):")
	for _, k := range sortedKeys(self) {
		fmt.Printf(" %s=%.1f", k, self[k])
	}
	layout := "monolith core, hybrid and model"
	if w.sharded {
		layout = "K=8 shard container, models included"
	}
	fmt.Printf("\nstructure layer: %s\ntop layer by self time: %s (%.1f us)\n", layout, top, self[top])
	fmt.Printf("tracing overhead: %+.2f us per request (%+.1f%%)\n", overheadUs, 100*overheadFrac)
	for _, msg := range v.mismatches {
		fmt.Println("  failure:", msg)
	}
	tracePath := filepath.Join(filepath.Dir(dir), "trace-"+w.name+".jsonl")
	if err := tr.write(tracePath); err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), tracePath)

	correct := v.failed == 0 && v.memberFN == 0
	return result{Correct: correct, Attempted: v.attempted, Failed: v.failed, Metrics: m}, nil
}

// probeTemplates picks up to n read templates per read endpoint.
func probeTemplates(in *inputs, n int) [numEndpoints][]int {
	var out [numEndpoints][]int
	for t, tm := range in.reads {
		if len(out[tm.ep]) < n {
			out[tm.ep] = append(out[tm.ep], t)
		}
	}
	return out
}

func pickTemplates(in *inputs, idx []int) []template {
	out := make([]template, len(idx))
	for i, t := range idx {
		out[i] = in.reads[t]
	}
	return out
}

// daemonGCs reads the daemon's completed GC cycle count from /debug/vars.
func daemonGCs(addr string) (uint32, error) {
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct{ NumGC uint32 } `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return vars.Memstats.NumGC, nil
}

// tracingOverhead runs read-only closed-loop blocks alternately without and
// with spans and returns the traced minus the untraced mean request time,
// in µs and as a share of the untraced time.
func tracingOverhead(cl *client, in *inputs, tr *tracer) (float64, float64) {
	var reads []int
	for _, op := range in.ops {
		if op >= 0 && len(reads) < 3000 {
			reads = append(reads, op)
		}
	}
	var off, on []float64
	for i := 0; i < 3; i++ {
		cl.spans = nil
		off = append(off, cl.closedLoop(phaseProbe, reads)*workers/float64(len(reads))*1e6)
		cl.spans = tr
		on = append(on, cl.closedLoop(phaseProbe, reads)*workers/float64(len(reads))*1e6)
	}
	d := median(on) - median(off)
	return d, d / median(off)
}

// Pending-insert counts of the delta-scan curve.
var (
	deltaCurve  = []int{0, 64, 1000, 10000}
	deltaLabels = []string{"0", "64", "1k", "10k"}
)

// layerProbe holds the in-process layer medians, in µs per request unless
// noted.
type layerProbe struct {
	handler, core, allocs, bytes [numEndpoints]float64
	shardBatch, shardSingle      [numEndpoints]float64 // per query
	canon                        float64               // per query
	delta                        []float64             // per query, at deltaCurve
	deltaMid                     float64               // per query, at the mix's mean pending count
	auxHit, window               float64
	predict, predictBatch        float64 // per query
	phiBytes                     float64
}

func probeLayers(tr *tracer, w workload, in *inputs, served, mono, shd server.Structures, probe [numEndpoints][]int) (layerProbe, bool) {
	var lp layerProbe
	ok := true
	srv, err := server.New(served, server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return lp, false
	}
	h := srv.Handler()
	root := tr.begin("probe", -1)

	serve := func(name string, reqs []*http.Request) {
		for _, r := range reqs {
			rec := httptest.NewRecorder()
			tr.time(name, root, func() { h.ServeHTTP(rec, r) })
			ok = ok && rec.Code == http.StatusOK
		}
	}
	// allocs measures ServeHTTP alone over pre-built requests, untraced, so
	// neither request construction nor the tracer is counted.
	allocs := func(reqs []*http.Request) (float64, float64) {
		recs := make([]*httptest.ResponseRecorder, len(reqs))
		for i := range recs {
			recs[i] = httptest.NewRecorder()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i, r := range reqs {
			h.ServeHTTP(recs[i], r)
		}
		runtime.ReadMemStats(&m1)
		n := float64(len(reqs))
		return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
	}
	requests := func(ep int, bodies [][]byte) []*http.Request {
		out := make([]*http.Request, len(bodies))
		for i, b := range bodies {
			out[i] = httptest.NewRequest(http.MethodPost, epPaths[ep], bytes.NewReader(b))
		}
		return out
	}

	for ep := epCard; ep <= epMember; ep++ {
		ts := pickTemplates(in, probe[ep])
		bodies := make([][]byte, len(ts))
		for i, t := range ts {
			bodies[i] = t.body
		}
		serve("server.handler."+epNames[ep], requests(ep, bodies))
		lp.allocs[ep], lp.bytes[ep] = allocs(requests(ep, bodies))
		for _, t := range ts {
			tr.time("core."+epNames[ep], root, func() { reference(served, ep, t.queries) })
			qs := t.queries
			tr.time("sets.canon", root, func() {
				for _, q := range qs {
					sets.New(q...)
				}
			})
		}
		lp.handler[ep] = tr.p50("server.handler."+epNames[ep], 1)
		lp.core[ep] = tr.p50("core."+epNames[ep], 1)
	}
	lp.canon = tr.p50("sets.canon", float64(w.batch))

	pool := in.pool[:probeQueries]
	for ep := epCard; ep <= epMember; ep++ {
		for lo := 0; lo+batchSize <= len(pool); lo += batchSize {
			tr.time("shard.call."+epNames[ep], root, func() { reference(shd, ep, pool[lo:lo+batchSize]) })
		}
		for i := range pool {
			tr.time("shard.single_call."+epNames[ep], root, func() { reference(shd, ep, pool[i:i+1]) })
		}
		lp.shardBatch[ep] = tr.p50("shard.call."+epNames[ep], batchSize)
		lp.shardSingle[ep] = tr.p50("shard.single_call."+epNames[ep], 1)
	}

	est := mono.Estimator.(*core.CardinalityEstimator)
	idx := mono.Index.(*core.SetIndex)
	pred := est.Hybrid().Model().NewPredictor()
	aux, win := 0, 0
	for i, q := range pool {
		tr.time("deepsets.predict", root, func() { pred.Predict(q) })
		if _, ok := est.RawEstimate(q); !ok {
			aux++
		}
		win += idx.Hybrid().WindowSize(q)
		if i%batchSize == 0 && i+batchSize <= len(pool) {
			tr.time("deepsets.predict_batch", root, func() { pred.PredictBatch(nil, pool[i:i+batchSize]) })
		}
	}
	lp.predict = tr.p50("deepsets.predict", 1)
	lp.predictBatch = tr.p50("deepsets.predict_batch", batchSize)
	lp.auxHit = float64(aux) / float64(len(pool))
	lp.window = float64(win) / float64(len(pool))
	lp.phiBytes = phiBytes(served)

	scan := func(name string, n int) float64 {
		entries := make([]hybrid.DeltaEntry, min(n, len(in.stream)))
		for j := range entries {
			entries[j] = hybrid.DeltaEntry{Pos: numSets + j, Set: in.stream[j]}
		}
		dl := hybrid.NewDeltaFrom(entries)
		for _, q := range pool {
			tr.time(name, root, func() {
				dl.Count(q)
				dl.FirstPos(q, false)
				dl.Contains(q)
			})
		}
		return tr.p50(name, 1)
	}
	for i, n := range deltaCurve {
		lp.delta = append(lp.delta, scan("hybrid.delta_scan."+deltaLabels[i], n))
	}
	lp.deltaMid = scan("hybrid.delta_scan.mix_mean", meanPending(w, in))

	// Inserts last: they grow the served structures' deltas.
	fresh := in.stream[len(in.stream)-probeInserts:]
	var bodies [][]byte
	for _, s := range fresh {
		bodies = append(bodies, mustJSON(map[string][]uint32{"set": s}))
	}
	third := len(bodies) / 3
	serve("server.handler.insert", requests(epInsert, bodies[:third]))
	lp.allocs[epInsert], lp.bytes[epInsert] = allocs(requests(epInsert, bodies[third:2*third]))
	targets := []core.Inserter{served.Index.(core.Inserter), served.Estimator.(core.Inserter), served.Filter.(core.Inserter)}
	for _, s := range fresh[2*third : len(bodies)] {
		tr.time("core.insert", root, func() {
			for _, t := range targets {
				t.InsertSet(s)
			}
		})
	}
	lp.handler[epInsert] = tr.p50("server.handler.insert", 1)
	lp.core[epInsert] = tr.p50("core.insert", 1)
	tr.end(root)
	return lp, ok
}

// meanPending is the mean number of pending inserts a mix read sees: half
// the inserts in the mix, since they arrive at a steady share of the ops.
func meanPending(w workload, in *inputs) int {
	if w.insert == 0 {
		return 0
	}
	return len(in.insBody) / 2
}

// phiBytes sums the φ fast-path footprint of the three structures.
func phiBytes(st server.Structures) float64 {
	total := 0
	for _, stats := range []func() (deepsets.AccelStats, bool){st.Estimator.PhiStats, st.Index.PhiStats, st.Filter.PhiStats} {
		if a, ok := stats(); ok {
			total += a.Bytes
		}
	}
	return float64(total)
}

// selfTimes splits one read request of w into layer self times (µs),
// averaged over the read endpoints: transport is the round trip minus the
// handler; the server is the handler minus canonicalization and the
// structure call; the structure layer is the whole call, timed with no
// pending inserts — core, hybrid and model on monoliths, the shard
// container on sharded workloads, whose per-shard models cannot be timed
// from outside; the delta scan is its per-query median at the mix's mean
// pending count times the batch size.
func selfTimes(w workload, m map[string]metric, lp layerProbe) map[string]float64 {
	var transport, server, call float64
	for ep := epCard; ep <= epMember; ep++ {
		transport += m["http.transport_us."+epNames[ep]].Value / 3
		server += (lp.handler[ep] - lp.core[ep]) / 3
		call += lp.core[ep] / 3
	}
	b := float64(w.batch)
	return map[string]float64{
		"transport":    transport,
		"server":       server - lp.canon*b,
		"sets":         lp.canon * b,
		"structure":    call,
		"hybrid_delta": lp.deltaMid * b,
	}
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
