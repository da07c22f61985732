package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
)

// echoEnv, set to 1 in this program's environment, makes it the reference
// echo server instead of the benchmark.
const echoEnv = "SERVEBENCH_ECHO"

// serveEcho runs the reference server: the same loopback HTTP/1.1 path as
// setlearnd (net/http, keep-alive, a JSON body decoded in full, a JSON
// reply) with a fixed amount of work per query behind it. Its round trip,
// timed in every round beside the daemon's, tracks how fast the shared
// machine runs at that moment, for transport and for compute alike.
func serveEcho() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	table := make([]float64, 1<<17) // 1 MiB: lookups miss the L1 and L2 caches as embedding lookups do
	for i := range table {
		table[i] = math.Sin(float64(i))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Query   []uint32   `json:"query"`
			Queries [][]uint32 `json:"queries"`
			Set     []uint32   `json:"set"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		qs := req.Queries
		switch {
		case req.Query != nil:
			qs = [][]uint32{req.Query}
		case req.Set != nil:
			qs = [][]uint32{req.Set}
		}
		out := make([]float64, len(qs))
		for i, q := range qs {
			out[i] = echoWork(table, q)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string][]float64{"estimates": out}) // a client that hung up needs no reply
	})
	fmt.Printf("serving on %s\n", ln.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		ln.Close()
	}()
	_ = http.Serve(ln, mux) // returns once the listener closes
}

// echoWork is the reference server's fixed work for one query: a table
// lookup per element and a 16×16 dense layer, about what a small
// set model spends per query.
func echoWork(table []float64, q []uint32) float64 {
	var h [16]float64
	for _, id := range q {
		for j := range h {
			h[j] += table[(uint64(id)*2654435761+uint64(j)*40503)&uint64(len(table)-1)]
		}
	}
	var sum float64
	for i := 0; i < 16; i++ {
		var a float64
		for j, x := range h {
			a += x * table[(i*16+j)&(len(table)-1)]
		}
		sum += math.Max(a, 0)
	}
	return sum
}
