package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/server"
	"setlearn/internal/sets"
	"setlearn/internal/shard"
)

// fastPath mirrors setlearnd's defaults (-phi-table, -phi-cache-mb 64), so
// in-process reference structures answer exactly as the daemon does.
var fastPath = core.FastPathOptions{TableBudgetBytes: 64 << 20, CacheBytes: 64 << 20}

func modelOptions(seed int64) core.ModelOptions {
	return core.ModelOptions{Compressed: true, Epochs: epochs, Workers: workers, Seed: seed}
}

func shardOptions() shard.Options {
	return shard.Options{Shards: numShards, Partitioner: shard.EmbedCluster, Parallelism: workers, MeasureBounds: true}
}

// built holds one trained structure trio and the build phase timings.
type built struct {
	st                                     server.Structures
	subsetsS, cardS, indexS, memberS, phiS float64
	saveS                                  float64
	size                                   int
	files                                  [numEndpoints - 1]string // card, index, member
	data                                   string
	digest                                 [32]byte // of the saved structures, to check build determinism
	sharded                                bool
}

// build trains the three structures over c through the public Build*
// entry points and times each phase.
func build(c *sets.Collection, sharded bool, seed int64) (*built, error) {
	b := &built{sharded: sharded}
	mo := modelOptions(seed)
	eo := core.EstimatorOptions{Model: mo, MaxSubset: maxSubset, Percentile: 90}
	xo := core.IndexOptions{Model: mo, MaxSubset: maxSubset, Percentile: 90}
	fo := core.FilterOptions{Model: mo, MaxSubset: maxSubset}

	t := time.Now()
	dataset.CollectSubsets(c, maxSubset)
	b.subsetsS = time.Since(t).Seconds()

	var err error
	t = time.Now()
	if sharded {
		b.st.Estimator, err = shard.BuildShardedEstimator(c, shardOptions(), eo)
	} else {
		b.st.Estimator, err = core.BuildEstimator(c, eo)
	}
	if err != nil {
		return nil, fmt.Errorf("build estimator: %w", err)
	}
	b.cardS = time.Since(t).Seconds()
	t = time.Now()
	if sharded {
		b.st.Index, err = shard.BuildShardedIndex(c, shardOptions(), xo)
	} else {
		b.st.Index, err = core.BuildIndex(c, xo)
	}
	if err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	b.indexS = time.Since(t).Seconds()
	t = time.Now()
	if sharded {
		b.st.Filter, err = shard.BuildShardedFilter(c, shardOptions(), fo)
	} else {
		b.st.Filter, err = core.BuildMembershipFilter(c, fo)
	}
	if err != nil {
		return nil, fmt.Errorf("build filter: %w", err)
	}
	b.memberS = time.Since(t).Seconds()

	t = time.Now()
	enableFastPath(b.st)
	b.phiS = time.Since(t).Seconds()
	b.size = b.st.Estimator.SizeBytes() + b.st.Index.SizeBytes() + b.st.Filter.SizeBytes()
	return b, nil
}

func enableFastPath(st server.Structures) {
	st.Estimator.EnableFastPath(fastPath)
	st.Index.EnableFastPath(fastPath)
	st.Filter.EnableFastPath(fastPath)
}

type saver interface{ Save(io.Writer) error }

// save writes the collection and the three structures into dir.
func (b *built) save(c *sets.Collection, dir string) error {
	t := time.Now()
	h := sha256.New()
	write := func(name string, fn func(io.Writer) error) (string, error) {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			return "", fmt.Errorf("save %s: %w", name, err)
		}
		h.Write(buf.Bytes())
		return path, os.WriteFile(path, buf.Bytes(), 0o644)
	}
	var err error
	if b.data, err = write("collection.txt", c.Write); err != nil {
		return err
	}
	structs := [...]saver{b.st.Estimator.(saver), b.st.Index.(saver), b.st.Filter.(saver)}
	for i, s := range structs {
		if b.files[i], err = write(epNames[i]+".bin", s.Save); err != nil {
			return err
		}
	}
	copy(b.digest[:], h.Sum(nil))
	b.saveS = time.Since(t).Seconds()
	return nil
}

// loadReference loads the saved trio in-process, exactly as setlearnd
// does, to serve as the reference every served answer must equal.
func (b *built) loadReference(c *sets.Collection) (server.Structures, error) {
	var st server.Structures
	open := func(path string, fn func(*os.File) error) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	err := open(b.files[epCard], func(f *os.File) (err error) {
		if b.sharded {
			st.Estimator, err = shard.LoadShardedEstimator(f)
		} else {
			st.Estimator, err = core.LoadCardinalityEstimator(f)
		}
		return err
	})
	if err == nil {
		err = open(b.files[epIndex], func(f *os.File) (err error) {
			if b.sharded {
				st.Index, err = shard.LoadShardedIndex(f, c)
			} else {
				st.Index, err = core.LoadIndex(f, c)
			}
			return err
		})
	}
	if err == nil {
		err = open(b.files[epMember], func(f *os.File) (err error) {
			if b.sharded {
				st.Filter, err = shard.LoadShardedFilter(f)
			} else {
				st.Filter, err = core.LoadMembershipFilter(f)
			}
			return err
		})
	}
	if err != nil {
		return st, fmt.Errorf("load reference: %w", err)
	}
	enableFastPath(st)
	return st, nil
}

// daemon is a running server process: setlearnd or the reference echo server.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error
	once sync.Once
}

// startDaemon starts setlearnd on the saved trio and waits until /healthz
// answers.
func startDaemon(bin string, b *built) (*daemon, error) {
	return startServer(exec.Command(bin, "-addr", "127.0.0.1:0", "-data", b.data,
		"-card", b.files[epCard], "-index", b.files[epIndex], "-member", b.files[epMember]))
}

// startEcho starts this program again as the reference echo server (see
// echo.go).
func startEcho() (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), echoEnv+"=1")
	return startServer(cmd)
}

// startServer starts cmd, a server that prints "serving on <addr>", and
// waits until its /healthz answers.
func startServer(cmd *exec.Cmd) (*daemon, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", cmd.Path, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
				addrc <- a
			}
		}
		close(addrc)
		d.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			return nil, fmt.Errorf("%s exited before serving: %v", cmd.Path, <-d.done)
		}
		d.addr = a
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address", cmd.Path)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s not healthy: %v", cmd.Path, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGINT and waits for it to exit, killing it
// if the drain hangs. Later calls return at once.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(os.Interrupt)
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	})
}
