package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Phases of a run, in the order they execute.
const (
	phaseWarm  = iota
	phaseProbe // traced run only: round-trip probes and tracing-overhead blocks
	phaseClosed
	phaseSerial
	phaseAccuracy
	phaseTail
	numPhases
)

var phaseNames = [numPhases]string{"warm", "probe", "closed", "serial", "accuracy", "tail"}

// record is one HTTP request as the generator saw it. Times are
// nanoseconds on the run's monotonic clock.
type record struct {
	phase  int8
	round  int8
	ep     int8
	row    bool  // a read of insert ins's set: read-own-write (mix) or read-back (tail)
	tmpl   int32 // read template index, or -1
	ins    int32 // insert stream index, or -1
	sent   int64
	done   int64
	status int    // 0 on a transport error
	body   []byte // the reply, or the transport error
}

// client sends pre-encoded requests to the daemon over `workers`
// keep-alive connections, one per sending goroutine, and records every one.
type client struct {
	conns []*conn
	t0    time.Time
	in    *inputs
	mu    sync.Mutex
	recs  []record
	spans *tracer // nil unless tracing
	round int8    // stamped on each record; set between phases
	echo  *client // reference client that sequential pairs every request with, or nil

	nextIns atomic.Int64 // next insert index
}

func newClient(addr string, in *inputs, t0 time.Time) *client {
	c := &client{t0: t0, in: in}
	for w := 0; w < workers; w++ {
		c.conns = append(c.conns, newConn(addr))
	}
	return c
}

func (c *client) now() int64 { return int64(time.Since(c.t0)) }

func (c *client) close() {
	for _, k := range c.conns {
		k.close()
	}
}

// do sends one request on k and returns its record (not yet stored);
// parent is the caller's span when tracing.
func (c *client) do(k *conn, ep int, body []byte, parent int) record {
	r := record{ep: int8(ep), round: c.round, tmpl: -1, ins: -1}
	r.sent = c.now()
	status, reply, err := k.post(epPaths[ep], body)
	r.done = c.now()
	if c.spans != nil {
		c.spans.add("http."+epNames[ep], parent, r.sent, r.done)
	}
	r.status, r.body = status, reply
	if err != nil {
		r.status, r.body = 0, []byte(err.Error())
	}
	return r
}

// Operations other than reads (which are template indexes ≥ 0).
const (
	opInsertRead = -1 // the next insert, then a read-own-write query of it
	opInsert     = -2 // the next insert alone
)

// runOp executes one operation: a read template, or the next insert with
// or without its read-own-write query.
func (c *client) runOp(k *conn, phase int, op int, out *[]record) {
	id := -1
	if c.spans != nil {
		id = c.spans.begin("gen."+phaseNames[phase], -1)
	}
	if op >= 0 {
		r := c.do(k, c.in.reads[op].ep, c.in.reads[op].body, id)
		r.phase, r.tmpl = int8(phase), int32(op)
		*out = append(*out, r)
	} else {
		c.insert(k, phase, int(c.nextIns.Add(1)-1), op == opInsertRead, id, out)
	}
	if c.spans != nil {
		c.spans.end(id)
	}
}

func (c *client) insert(k *conn, phase, j int, readBack bool, parent int, out *[]record) {
	r := c.do(k, epInsert, c.in.insBody[j], parent)
	r.phase, r.ins = int8(phase), int32(j)
	*out = append(*out, r)
	if !readBack || r.status != http.StatusOK {
		return
	}
	q := c.do(k, j%3, c.in.rowBody[j], parent)
	q.phase, q.ins, q.row = int8(phase), int32(j), true
	*out = append(*out, q)
}

func (c *client) store(rs []record) {
	c.mu.Lock()
	c.recs = append(c.recs, rs...)
	c.mu.Unlock()
}

// closedLoop runs ops with `workers` clients, each sending its next
// operation when the previous one completes, and returns the elapsed
// seconds.
func (c *client) closedLoop(phase int, ops []int) float64 {
	var next atomic.Int64
	end := int64(len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(k *conn) {
			defer wg.Done()
			var rs []record
			for {
				i := next.Add(1) - 1
				if i >= end {
					break
				}
				c.runOp(k, phase, ops[i], &rs)
			}
			c.store(rs)
		}(c.conns[w])
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// echoBlock is how many sequential requests go to the daemon before the
// same bodies go to the echo server. Alternating request by request would
// leave each server idle for the other's round trip, and a Go server that
// idles that long parks its threads, so half-idle wake-ups would set both
// latencies; in blocks each server answers back-to-back requests.
const echoBlock = 32

// sequential runs ops one after another from one client, each timed from
// its send to its reply: with one request in flight there is no queue, so
// the time is the daemon's service time plus the loopback round trip. With
// an echo client set, each block of requests is followed at once by the
// same bodies sent to the reference echo server, recorded there under the
// same phase, round and endpoint, so both see the machine in the same
// moment.
func (c *client) sequential(phase int, ops []int) {
	var rs []record
	for lo := 0; lo < len(ops); lo += echoBlock {
		n := len(rs)
		for _, op := range ops[lo:min(lo+echoBlock, len(ops))] {
			c.runOp(c.conns[0], phase, op, &rs)
		}
		if c.echo != nil {
			c.echo.replay(c, rs[n:])
		}
	}
	c.store(rs)
}

// replay sends the bodies of recs, which src sent, once each, and records
// them under the same phase, round and endpoint. Read-own-write and
// read-back queries are skipped: they are not latency samples.
func (c *client) replay(src *client, recs []record) {
	var es []record
	for _, r := range recs {
		if r.row {
			continue
		}
		var body []byte
		if r.tmpl >= 0 {
			body = src.in.reads[r.tmpl].body
		} else {
			body = src.in.insBody[r.ins]
		}
		e := c.do(c.conns[0], int(r.ep), body, -1)
		e.phase, e.round = r.phase, r.round
		es = append(es, e)
	}
	c.store(es)
}

// insertTail sends the next n inserts of the stream sequentially.
func (c *client) insertTail(n int) {
	ops := make([]int, n)
	for i := range ops {
		ops[i] = opInsert
	}
	c.sequential(phaseTail, ops)
}

// readBack queries each of the first n write-tail inserts once, rotating
// over the read endpoints, after the tail has finished.
func (c *client) readBack(n int) {
	var rs []record
	for j := 0; j < n && j < int(c.nextIns.Load()); j++ {
		r := c.do(c.conns[0], j%3, c.in.rowBody[j], -1)
		r.phase, r.ins, r.row = phaseTail, int32(j), true
		rs = append(rs, r)
	}
	c.store(rs)
}
