// Command servebench drives a real setlearnd daemon over loopback with
// one of three traffic mixes, checks every answer against an in-process
// reference, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separate in-process traced run) as one JSON line.
//
// Run it through run.sh, which builds this command and setlearnd first:
//
//	bash servebench/run.sh --workload point_mono --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if os.Getenv(echoEnv) == "1" {
		serveEcho()
		return
	}
	name := flag.String("workload", "", "workload: point_mono, batch_shard or write_mix")
	seed := flag.Int64("seed", 1, "seed for the collection, the queries, the inserts and the operation mix")
	secs := flag.Int("seconds", 15, "scales the operation counts of the measured phases, about a second of traffic per unit")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of an in-process traced run")
	bin := flag.String("setlearnd", "", "path to the setlearnd binary")
	work := flag.String("workdir", "", "working directory for saved structures and span files")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *bin == "" || *work == "" || *secs < 1 {
		fmt.Fprintln(os.Stderr, "servebench: need --workload (point_mono|batch_shard|write_mix), --seconds ≥ 1, --setlearnd and --workdir")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		fatal(err)
	}
	var res result
	if *trace == 1 {
		res, err = runTraced(w, *seed, *secs, *bin, dir)
	} else {
		res, err = runEndToEnd(w, *seed, *secs, *bin, dir)
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	// A metric with no samples (say, every card answer failed) is NaN,
	// which JSON cannot carry: report 0 and mark the run incorrect.
	for k, x := range res.Metrics {
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			res.Metrics[k] = metric{Value: 0, Unit: x.Unit}
			res.Correct = false
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

// Setup repetitions per end-to-end run; setup_s is their median.
const setupReps = 3

// phasePlan fixes a run's operation counts from the workload and --seconds.
type phasePlan struct {
	closed int // closed-loop operations
	serial int // sequential operations, the latency samples
	tail   int // write-tail inserts
}

func plan(w workload, secs int) phasePlan {
	return phasePlan{closed: w.closed * secs / 10, serial: w.serial * secs / 10, tail: w.tail * secs / 10}
}

const warmReads = 600

// Rounds the run's phases alternate in, so each phase samples the whole
// run rather than one stretch of it.
const rounds = 10

// traffic is a run's daemons and the clients that drive them. The write
// tail goes to a daemon of its own serving the same saved structures, so
// the reads never see its pending inserts while its samples still spread
// over the whole run. The echo server is the reference every timed phase
// alternates with (see echo.go).
type traffic struct {
	d, dTail, dEcho *daemon
	cl, clTail, ref *client
}

func newTraffic(bin string, b *built, d *daemon, w workload, in *inputs, t0 time.Time) (*traffic, error) {
	s := &traffic{d: d, cl: newClient(d.addr, in, t0)}
	de, err := startEcho()
	if err != nil {
		return nil, err
	}
	s.dEcho, s.ref = de, newClient(de.addr, in, t0)
	s.cl.echo = s.ref
	if w.tail > 0 {
		dt, err := startDaemon(bin, b)
		if err != nil {
			s.close()
			return nil, err
		}
		s.dTail, s.clTail = dt, newClient(dt.addr, in, t0)
		s.clTail.echo = s.ref
	}
	return s, nil
}

// close drops the connections and stops the servers; it may be called
// more than once.
func (s *traffic) close() {
	s.cl.close()
	s.d.stop()
	if s.dEcho != nil {
		s.ref.close()
		s.dEcho.stop()
	}
	if s.dTail != nil {
		s.clTail.close()
		s.dTail.stop()
	}
}

func (s *traffic) records() []record {
	if s.clTail == nil {
		return s.cl.recs
	}
	return append(append([]record(nil), s.cl.recs...), s.clTail.recs...)
}

// readBackCount is how many write-tail inserts are read back once the tail
// has finished.
const readBackCount = 600

func (s *traffic) readBackTail() {
	if s.clTail != nil {
		s.clTail.readBack(readBackCount)
	}
}

func (s *traffic) trace(tr *tracer) {
	s.cl.spans = tr
	if s.clTail != nil {
		s.clTail.spans = tr
	}
}

// Closed-loop slices per round: the daemon's and the echo server's
// closed loops alternate in slices this many times a round.
const slices = 16

// loopRate is a closed loop's requests and elapsed seconds in each round.
type loopRate struct{ n, secs [rounds]float64 }

func (l *loopRate) byRound() []float64 {
	out := make([]float64, rounds)
	for r := range out {
		out[r] = l.n[r] / l.secs[r]
	}
	return out
}

// overall is the run's requests per second.
func (l *loopRate) overall() float64 {
	var n, secs float64
	for r := 0; r < rounds; r++ {
		n, secs = n+l.n[r], secs+l.secs[r]
	}
	return n / secs
}

// sendMix runs the closed-loop, sequential and write-tail phases in
// alternating rounds. It returns the closed-loop rates of the daemon and of the
// echo server over the same read bodies, the two loops run in alternating
// slices.
func sendMix(s *traffic, in *inputs, p phasePlan) (daemon, echo loopRate) {
	for r := 0; r < rounds; r++ {
		s.cl.round = int8(r)
		if s.clTail != nil {
			s.clTail.round = int8(r)
		}
		for k := 0; k < slices; k++ {
			lo, hi := (r*slices+k)*p.closed/(rounds*slices), (r*slices+k+1)*p.closed/(rounds*slices)
			m := len(s.cl.recs)
			daemon.secs[r] += s.cl.closedLoop(phaseClosed, in.ops[lo:hi])
			daemon.n[r] += float64(len(s.cl.recs) - m)
			m = len(s.ref.recs)
			echo.secs[r] += s.ref.closedLoop(phaseClosed, reads(in.ops[lo:hi]))
			echo.n[r] += float64(len(s.ref.recs) - m)
		}

		lo, hi := r*p.serial/rounds, (r+1)*p.serial/rounds
		s.cl.sequential(phaseSerial, in.ops[p.closed+lo:p.closed+hi])
		if s.clTail != nil {
			s.clTail.insertTail((r+1)*p.tail/rounds - r*p.tail/rounds)
		}
	}
	return daemon, echo
}

// roundP50s returns each round's median.
func roundP50s(byRound [rounds][]float64) []float64 {
	var out []float64
	for _, xs := range byRound {
		out = append(out, percentile(sortedCopy(xs), 50))
	}
	return out
}

// reads returns the read templates among ops.
func reads(ops []int) []int {
	var out []int
	for _, op := range ops {
		if op >= 0 {
			out = append(out, op)
		}
	}
	return out
}

// runEndToEnd sets up setupReps times (keeping the last daemon), then runs
// the warm-up, the rounds of closed-loop, sequential and write-tail
// traffic, each beside the echo server, and the accuracy pass, and checks
// every answer.
func runEndToEnd(w workload, seed int64, secs int, bin, dir string) (result, error) {
	var setup []float64
	var b *built
	var d *daemon
	deterministic := true
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		c := collection(seed)
		nb, err := build(c, w.sharded, seed)
		if err == nil {
			repDir := filepath.Join(dir, fmt.Sprint(rep))
			if err = os.Mkdir(repDir, 0o755); err == nil {
				err = nb.save(c, repDir)
			}
		}
		var nd *daemon
		if err == nil {
			nd, err = startDaemon(bin, nb)
		}
		if err != nil {
			if d != nil {
				d.stop()
			}
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t).Seconds())
		if d != nil {
			d.stop()
			deterministic = deterministic && nb.digest == b.digest
		}
		b, d = nb, nd
	}
	defer d.stop()

	c := collection(seed)
	ref, err := b.loadReference(c)
	if err != nil {
		return result{}, err
	}
	p := plan(w, secs)
	in := makeInputs(w, seed, c, p.closed+p.serial, p.tail)
	ck := newChecker(in, ref)

	s, err := newTraffic(bin, b, d, w, in, time.Now())
	if err != nil {
		return result{}, err
	}
	defer s.close()
	// One P for the generator while it sends: its senders mostly wait on
	// the network, and idle Ps spinning for work would take CPU from the
	// daemon it shares the machine with.
	procs := runtime.GOMAXPROCS(1)
	s.cl.sequential(phaseWarm, upTo(min(warmReads, len(in.reads))))
	rate, echoRate := sendMix(s, in, p)
	s.cl.echo = nil
	s.cl.sequential(phaseAccuracy, upTo(len(in.reads)))
	s.readBackTail()
	runtime.GOMAXPROCS(procs)
	s.close()

	recs := s.records()
	v := ck.check(recs)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setup))
	put("throughput_vs_echo", "ratio", rate.overall()/echoRate.overall())
	lat, echoLat := latencies(recs), latencies(s.ref.recs)
	for ep := 0; ep < numEndpoints; ep++ {
		put(epNames[ep]+"_latency_vs_echo", "ratio", latencyRatio(lat[ep], echoLat[ep]))
	}
	put("card_qerror_mean", "ratio", mean(v.qerr))
	put("index_exact_frac", "frac", float64(v.idxExact)/float64(v.idxN))
	put("member_fpr", "frac", float64(v.fp)/float64(v.negatives))
	put("size_mb", "MB", float64(b.size)/(1<<20))

	printSummary(w, seed, p, setup, recs, v, lat, echoLat, &rate, &echoRate, deterministic)
	fmt.Printf("held-out queries only: card_qerror_mean %.4f (n=%d), index_exact_frac %.4f (n=%d)\n",
		mean(v.heldQerr), len(v.heldQerr), float64(v.heldExact)/float64(v.heldN), v.heldN)
	correct := v.failed == 0 && v.memberFN == 0 && deterministic
	return result{Correct: correct, Attempted: v.attempted, Failed: v.failed, Metrics: m}, nil
}

// latencies returns latencies in microseconds by endpoint and round, each
// from send to reply: sequential mix operations for the read endpoints and
// for inserts in the mix, write-tail inserts otherwise.
func latencies(recs []record) [numEndpoints][rounds][]float64 {
	var out [numEndpoints][rounds][]float64
	for _, r := range recs {
		if r.row || (r.phase != phaseSerial && !(r.phase == phaseTail && r.ep == epInsert)) {
			continue
		}
		out[r.ep][r.round] = append(out[r.ep][r.round], float64(r.done-r.sent)/1e3)
	}
	return out
}

// roundsPercentile returns the median over the rounds of each round's p-th
// percentile.
func roundsPercentile(byRound [rounds][]float64, p float64) float64 {
	var ps []float64
	for _, xs := range byRound {
		if len(xs) > 0 {
			ps = append(ps, percentile(sortedCopy(xs), p))
		}
	}
	return median(ps)
}

// latencyRatio returns the sum over the rounds of the trimmed mean of xs
// divided by the same sum for the paired reference samples. The trimmed
// mean, unlike the median, moves smoothly as the share of fast and slow
// wake-ups shifts, and a stall of a few requests cannot move it; summing
// over the rounds weighs every round, also where latency climbs with the
// pending-insert count.
func latencyRatio(xs, ref [rounds][]float64) float64 {
	var num, den float64
	for r := range xs {
		if len(xs[r]) > 0 && len(ref[r]) > 0 {
			num += trimmedMean(xs[r])
			den += trimmedMean(ref[r])
		}
	}
	return num / den
}

func printSummary(w workload, seed int64, p phasePlan, setup []float64, recs []record, v verdict, lat, echoLat [numEndpoints][rounds][]float64, rate, echoRate *loopRate, deterministic bool) {
	fmt.Printf("workload %s (seed %d): %s; sharded=%v batch=%d insert-every=%d closed=%d serial=%d tail=%d\n",
		w.name, seed, w.why, w.sharded, w.batch, w.insert, p.closed, p.serial, p.tail)
	fmt.Printf("setup runs (s): %.3f; identical structures across runs: %v\n", setup, deterministic)
	for ph := 0; ph < numPhases; ph++ {
		fmt.Printf("phase %-8s sent %6d  succeeded %6d  failed %d\n", phaseNames[ph],
			v.phaseSent[ph], v.phaseSent[ph]-v.phaseFailed[ph], v.phaseFailed[ph])
	}
	fmt.Printf("fail_frac %.6f (%d of %d)\n", float64(v.failed)/math.Max(1, float64(v.attempted)), v.failed, v.attempted)
	for _, msg := range v.mismatches {
		fmt.Println("  failure:", msg)
	}
	if v.memberFN > 0 {
		fmt.Printf("member false negatives within max subset %d: %d\n", maxSubset, v.memberFN)
	}
	fmt.Printf("closed-loop requests/s: daemon %.0f by round %.0f; echo %.0f by round %.0f\n",
		rate.overall(), rate.byRound(), echoRate.overall(), echoRate.byRound())
	for ep := 0; ep < numEndpoints; ep++ {
		fmt.Printf("latency %-6s p50 by round (us): daemon %.1f, echo %.1f\n", epNames[ep], roundP50s(lat[ep]), roundP50s(echoLat[ep]))
	}
	for ep := 0; ep < numEndpoints; ep++ {
		var all []float64
		minN := -1
		for _, xs := range lat[ep] {
			all = append(all, xs...)
			if minN < 0 || len(xs) < minN {
				minN = len(xs)
			}
		}
		s := sortedCopy(all)
		hp := highestSupported(len(s))
		fmt.Printf("latency %-6s median of rounds p50=%.1fus p90=%.1fus (round p90 supported: %v, smallest round n=%d); pooled n=%d p50=%.1fus p90=%.1fus, highest supported p%g=%.1fus\n",
			epNames[ep], roundsPercentile(lat[ep], 50), roundsPercentile(lat[ep], 90), highestSupported(minN) >= 90, minN,
			len(s), percentile(s, 50), percentile(s, 90), hp, percentile(s, math.Max(hp, 50)))
	}
}
