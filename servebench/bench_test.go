package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"setlearn/internal/sets"
)

// TestMain lets the test binary serve as the echo server, which the runs
// start by executing their own binary.
func TestMain(m *testing.M) {
	if os.Getenv(echoEnv) == "1" {
		serveEcho()
		return
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got == got {
		t.Errorf("percentile of no samples = %g, want NaN", got)
	}
}

func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// TestSequentialTiming sends a mix to a slow server one request at a time,
// paired in blocks with a fast echo server, and checks that no two requests
// overlap, that each is timed from its send to its reply, that every
// request has its echo in the same round and endpoint, sent after the
// daemon's block, and that the latency ratio compares the two.
func TestSequentialTiming(t *testing.T) {
	const service = 2 * time.Millisecond
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{"estimate":1}`))
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"estimates":[1]}`))
	}))
	defer fast.Close()
	in := &inputs{reads: []template{newTemplate(epCard, nil)}}
	in.reads[0].body = []byte(`{"query":[1]}`)
	cl := newClient(slow.Listener.Addr().(*net.TCPAddr).String(), in, time.Now())
	defer cl.close()
	cl.echo = newClient(fast.Listener.Addr().(*net.TCPAddr).String(), in, cl.t0)
	defer cl.echo.close()
	const n = echoBlock + 8
	cl.round = 3
	cl.sequential(phaseSerial, make([]int, n))
	if len(cl.recs) != n || len(cl.echo.recs) != n {
		t.Fatalf("%d records and %d echoes, want %d each", len(cl.recs), len(cl.echo.recs), n)
	}
	for i, r := range cl.recs {
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		if r.done-r.sent < int64(service) {
			t.Errorf("latency %v below the service time", time.Duration(r.done-r.sent))
		}
		if i > 0 && r.sent < cl.recs[i-1].done {
			t.Errorf("request %d sent before request %d returned", i, i-1)
		}
		e := cl.echo.recs[i]
		if e.round != r.round || e.ep != r.ep || e.phase != r.phase {
			t.Errorf("echo %d in round %d, endpoint %d, phase %d; its request in %d, %d, %d", i, e.round, e.ep, e.phase, r.round, r.ep, r.phase)
		}
		block := i / echoBlock * echoBlock
		last := min(block+echoBlock, n) - 1
		if e.sent < cl.recs[last].done {
			t.Errorf("echo %d sent before its block's last request returned", i)
		}
	}
	lat, echoLat := latencies(cl.recs), latencies(cl.echo.recs)
	if got := len(lat[epCard][3]); got != n {
		t.Fatalf("%d latencies in round 3, want %d", got, n)
	}
	if got := roundsPercentile(lat[epCard], 50); got < float64(service/time.Microsecond) {
		t.Errorf("median latency %.0fus below the service time", got)
	}
	if got := latencyRatio(lat[epCard], echoLat[epCard]); got <= 1 {
		t.Errorf("latency ratio of the slow server to the echo %.2f, want above 1", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{1e6, 5, 4, 6, 5, 4, 6, 5, 5, 0}
	if got := trimmedMean(xs); got != 5 {
		t.Errorf("trimmedMean = %g, want 5: the lowest and highest tenth are dropped", got)
	}
	if got := trimmedMean([]float64{3}); got != 3 {
		t.Errorf("trimmedMean of one sample = %g, want 3", got)
	}
}

// TestSmoke runs every workload end to end and traced at a tiny scale and
// checks that each run is correct and prints every metric BENCHMARK.json
// names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds setlearnd and trains structures")
	}
	numSets, vocab, epochs, poolSize = 200, 300, 1, 512
	dir := t.TempDir()
	bin := filepath.Join(dir, "setlearnd")
	if out, err := exec.Command("go", "build", "-o", bin, "setlearn/cmd/setlearnd").CombinedOutput(); err != nil {
		t.Fatalf("build setlearnd: %v\n%s", err, out)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, ws := range spec.Workloads {
		w, ok := findWorkload(ws.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", ws.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
				run := runEndToEnd
				if trace == 1 {
					run = runTraced
				}
				wd, err := os.MkdirTemp(dir, "run")
				if err != nil {
					t.Fatal(err)
				}
				res, err := run(w, 1, 1, bin, wd)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %d: metric %s missing or unit %q != %q", trace, m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics printed, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
				}
			}
		})
	}
}

// TestMatchesOverlappingInserts checks the concurrent-insert acceptance
// rule with more overlapping inserts than any subset enumeration would
// allow: six inserts containing the query overlap the read, one was
// acknowledged before it was sent and one was sent after it returned.
func TestMatchesOverlappingInserts(t *testing.T) {
	q := sets.New(7)
	in := &inputs{}
	for j := 0; j < 8; j++ {
		in.sent = append(in.sent, sets.New(7, uint32(100+j)))
	}
	ck := &checker{in: in, ix: newInsertIndex(in.sent), inC: map[string][]int{}}
	read := &record{sent: 100, done: 200}
	byIns := map[int32]*record{}
	pos := make([]int, len(in.sent))
	for j := range in.sent {
		pos[j] = 5000 + 10*j
		switch j {
		case 0: // acknowledged before the read was sent: certainly applied
			byIns[int32(j)] = &record{sent: 10, done: 20}
		case 7: // sent after the read returned: certainly not applied
			byIns[int32(j)] = &record{sent: 300, done: 310}
		default: // overlapping: may or may not be applied
			byIns[int32(j)] = &record{sent: 50 + int64(j), done: 150 + int64(j)}
		}
	}
	qs := []sets.Set{q}
	for _, tc := range []struct {
		name string
		ep   int
		base answers
		got  answers
		want bool
	}{
		{"card, certain only", epCard, answers{cards: []float64{3}}, answers{cards: []float64{4}}, true},
		{"card, all six overlapping", epCard, answers{cards: []float64{3}}, answers{cards: []float64{10}}, true},
		{"card, five overlapping", epCard, answers{cards: []float64{3}}, answers{cards: []float64{9}}, true},
		{"card, without the certain insert", epCard, answers{cards: []float64{3}}, answers{cards: []float64{3}}, false},
		{"card, including the later insert", epCard, answers{cards: []float64{3}}, answers{cards: []float64{11}}, false},
		{"card, not a whole count", epCard, answers{cards: []float64{3}}, answers{cards: []float64{4.5}}, false},
		{"index, certain insert", epIndex, answers{poss: []int{-1}}, answers{poss: []int{5000}}, true},
		{"index, none applied", epIndex, answers{poss: []int{-1}}, answers{poss: []int{-1}}, false},
		{"index, learned answer first", epIndex, answers{poss: []int{42}}, answers{poss: []int{42}}, true},
		{"index, overlapping insert", epIndex, answers{poss: []int{9000}}, answers{poss: []int{5000}}, true},
		{"member, certain insert", epMember, answers{mems: []bool{false}}, answers{mems: []bool{true}}, true},
		{"member, certain insert ignored", epMember, answers{mems: []bool{false}}, answers{mems: []bool{false}}, false},
	} {
		if got := ck.matches(tc.ep, qs, tc.base, tc.got, read, byIns, pos); got != tc.want {
			t.Errorf("%s: matches = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Without the certain insert, every overlapping position is admissible
	// and so is no insert at all; a position no insert holds is not.
	delete(byIns, 0)
	for p, want := range map[int]bool{-1: true, 5010: true, 5060: true, 5070: false, 5005: false} {
		if got := ck.matches(epIndex, qs, answers{poss: []int{-1}}, answers{poss: []int{p}}, read, byIns, pos); got != want {
			t.Errorf("index %d with only overlapping inserts: matches = %v, want %v", p, got, want)
		}
	}
	for _, m := range []bool{false, true} {
		if !ck.matches(epMember, qs, answers{mems: []bool{false}}, answers{mems: []bool{m}}, read, byIns, pos) {
			t.Errorf("member %v with only overlapping inserts rejected", m)
		}
	}
}
