package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection that POSTs JSON and reads the
// reply. It does far less work per request than net/http's client, so the
// generator takes less of the CPU it shares with the daemon. On a 2-vCPU
// virtual machine, point_mono with net/http's client (one connection per
// sender) reached 8.2k–9.9k closed-loop requests/s against 14.8k–15.9k with
// conn, so the figures measured the generator.
type conn struct {
	addr string // host:port
	nc   net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	hdr  []byte
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (k *conn) close() {
	if k.nc != nil {
		k.nc.Close()
		k.nc = nil
	}
}

// post sends body to path and returns the status and the reply body. A
// transport error closes the connection; the next call redials.
func (k *conn) post(path string, body []byte) (int, []byte, error) {
	if k.nc == nil {
		nc, err := net.DialTimeout("tcp", k.addr, 10*time.Second)
		if err != nil {
			return 0, nil, err
		}
		k.nc, k.r, k.w = nc, bufio.NewReaderSize(nc, 16<<10), bufio.NewWriterSize(nc, 16<<10)
	}
	status, reply, err := k.roundTrip(path, body)
	if err != nil {
		k.close()
	}
	return status, reply, err
}

func (k *conn) roundTrip(path string, body []byte) (int, []byte, error) {
	_ = k.nc.SetDeadline(time.Now().Add(30 * time.Second)) // a hung daemon fails the request, not the run
	h := append(k.hdr[:0], "POST "...)
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, k.addr...)
	h = append(h, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(len(body)), 10)
	h = append(h, "\r\n\r\n"...)
	k.hdr = h
	if _, err := k.w.Write(h); err != nil {
		return 0, nil, err
	}
	if _, err := k.w.Write(body); err != nil {
		return 0, nil, err
	}
	if err := k.w.Flush(); err != nil {
		return 0, nil, err
	}

	line, err := k.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err = k.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		name, value, ok := strings.Cut(string(line), ":")
		if !ok {
			continue
		}
		value = strings.TrimSpace(value)
		switch strings.ToLower(name) {
		case "content-length":
			if length, err = strconv.Atoi(value); err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", value)
			}
		case "transfer-encoding":
			chunked = strings.EqualFold(value, "chunked")
		case "connection":
			closing = strings.EqualFold(value, "close")
		}
	}
	var reply []byte
	switch {
	case chunked:
		reply, err = k.readChunked()
	case length >= 0:
		reply = make([]byte, length)
		_, err = io.ReadFull(k.r, reply)
	default:
		return 0, nil, errors.New("reply without a length")
	}
	if err == nil && closing {
		k.close()
	}
	return status, reply, err
}

func (k *conn) readChunked() ([]byte, error) {
	var out []byte
	for {
		line, err := k.r.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		size, err := strconv.ParseInt(strings.TrimSpace(strings.SplitN(string(line), ";", 2)[0]), 16, 64)
		if err != nil || size < 0 || size > 64<<20 {
			return nil, fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			_, err = k.r.ReadSlice('\n') // the empty trailer
			return out, err
		}
		n := len(out)
		out = append(out, make([]byte, size)...)
		if _, err := io.ReadFull(k.r, out[n:]); err != nil {
			return nil, err
		}
		if _, err := k.r.ReadSlice('\n'); err != nil {
			return nil, err
		}
	}
}
