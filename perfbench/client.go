package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"time"

	"affinityaccept/internal/core"
	"affinityaccept/internal/loadgen"
)

// errWrongResponse marks a response that arrived but was not the one
// the request asked for: a status other than 200, a wrong
// Content-Length or a wrong body byte.
var errWrongResponse = errors.New("wrong response")

// clientConn is one load-generator connection: a buffered reader over
// the socket, a reusable request buffer and a body buffer for checks.
type clientConn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
	port int // local source port, the flow-table key
}

// dialGroup opens a connection whose source port hashes into group,
// with every read and write bounded by the run's hard deadline. It
// reuses the buffers of reuse, a closed connection, when that is not
// nil, so connection churn does not load the generator with garbage.
func dialGroup(target string, group, groups int, deadline time.Time, reuse *clientConn) (*clientConn, error) {
	c, err := loadgen.DialGroup(target, group, groups)
	if err != nil {
		return nil, err
	}
	if err := c.SetDeadline(deadline); err != nil {
		c.Close()
		return nil, fmt.Errorf("set deadline: %w", err)
	}
	cc := reuse
	if cc == nil {
		cc = &clientConn{
			br:   bufio.NewReaderSize(c, 64<<10),
			req:  make([]byte, 0, 4<<10),
			body: make([]byte, 8<<10),
		}
	}
	cc.c = c
	cc.br.Reset(c)
	cc.req = cc.req[:0]
	cc.port = c.LocalAddr().(*net.TCPAddr).Port
	return cc, nil
}

// appendRequest appends one GET for path to the pending request buffer.
// A non-zero trace adds the trace header for the k-th request of that
// trace; closing asks the server to close after responding.
func (cc *clientConn) appendRequest(path string, trace uint64, k int, closing bool) {
	b := append(cc.req, "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if trace != 0 {
		b = append(b, traceHeader...)
		b = append(b, ": "...)
		b = strconv.AppendUint(b, trace, 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(k), 10)
		b = append(b, "\r\n"...)
	}
	if closing {
		b = append(b, "Connection: close\r\n"...)
	}
	cc.req = append(b, "\r\n"...)
}

// flush writes the pending requests in one write.
func (cc *clientConn) flush() error {
	_, err := cc.c.Write(cc.req)
	cc.req = cc.req[:0]
	return err
}

// readResponse reads one response and checks it against want: status
// 200, a Content-Length equal to len(want) and a body equal to want.
func (cc *clientConn) readResponse(want []byte) error {
	line, err := cc.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		return fmt.Errorf("%w: status line %q", errWrongResponse, bytes.TrimSpace(line))
	}
	clen := -1
	for {
		line, err = cc.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(line) <= 2 {
			break
		}
		if colon := bytes.IndexByte(line, ':'); colon > 0 && bytes.EqualFold(line[:colon], []byte("Content-Length")) {
			n, err := strconv.Atoi(string(bytes.TrimSpace(line[colon+1:])))
			if err != nil {
				return fmt.Errorf("%w: Content-Length %q", errWrongResponse, bytes.TrimSpace(line))
			}
			clen = n
		}
	}
	if clen != len(want) {
		return fmt.Errorf("%w: Content-Length %d, want %d", errWrongResponse, clen, len(want))
	}
	if cap(cc.body) < clen {
		cc.body = make([]byte, clen)
	}
	body := cc.body[:clen]
	if _, err := io.ReadFull(cc.br, body); err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%w: body differs from the %d bytes requested", errWrongResponse, len(want))
	}
	return nil
}

// expectClose checks that the server closed the connection after a
// response that asked it to.
func (cc *clientConn) expectClose() error {
	if _, err := cc.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: connection still open after Connection: close (%v)", errWrongResponse, err)
	}
	return nil
}

func (cc *clientConn) close() { cc.c.Close() }

// abort closes with a reset, leaving no TIME_WAIT behind on the client
// side: each seeded flow group has only about 11 source ports, and a
// pinned keep-alive connection closes from the client, so orderly
// closes would use up a group's ports within a minute of back-to-back
// runs on one seed.
func (cc *clientConn) abort() {
	cc.c.(*net.TCPConn).SetLinger(0)
	cc.c.Close()
}

// ownedGroup draws, from rng, a flow group that worker owns when the
// server starts (core.InitialOwner), so the seed decides placement.
func ownedGroup(rng *rand.Rand, worker, groups, workers int) int {
	for {
		g := rng.Intn(groups)
		if core.InitialOwner(g, workers) == worker {
			return g
		}
	}
}
