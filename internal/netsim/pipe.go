package netsim

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// pipe implements an in-memory, buffered, full-duplex connection pair with
// deadline support. Unlike net.Pipe, writes complete as soon as the data is
// buffered, which matches TCP's behaviour closely enough for HTTP
// request/response traffic and avoids lock-step deadlocks between
// middleboxes that read and write concurrently.

const pipeBufferLimit = 1 << 20 // per-direction buffer cap, like a TCP window

// halfPipe is one direction of a duplex conn: one side writes, the other reads.
type halfPipe struct {
	mu       sync.Mutex
	cond     *sync.Cond
	buf      []byte
	wclosed  bool // write side closed: readers drain then see io.EOF
	rclosed  bool // read side closed: writers see io.ErrClosedPipe
	rdl, wdl deadline
}

func newHalfPipe() *halfPipe {
	h := &halfPipe{}
	h.cond = sync.NewCond(&h.mu)
	h.rdl.cond = h.cond
	h.wdl.cond = h.cond
	return h
}

// deadline wakes the cond when the timer fires so blocked readers/writers
// can observe expiry.
type deadline struct {
	cond  *sync.Cond
	t     time.Time
	timer *time.Timer
}

// set must be called with the halfPipe mutex held. arm is false once
// the half is closed: nothing waits on it any more, and an armed timer
// would pin its buffers until it fires.
func (d *deadline) set(t time.Time, arm bool) {
	d.t = t
	d.stop()
	if t.IsZero() || !arm {
		return
	}
	if dur := time.Until(t); dur > 0 {
		cond := d.cond
		d.timer = time.AfterFunc(dur, func() {
			cond.L.Lock()
			cond.Broadcast()
			cond.L.Unlock()
		})
	}
}

// stop disarms the timer; it must be called with the halfPipe mutex
// held.
func (d *deadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
}

// expired must be called with the halfPipe mutex held.
func (d *deadline) expired() bool {
	return !d.t.IsZero() && !time.Now().Before(d.t)
}

func (h *halfPipe) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.rclosed {
			return 0, io.ErrClosedPipe
		}
		if h.rdl.expired() {
			return 0, os.ErrDeadlineExceeded
		}
		if len(h.buf) > 0 {
			n := copy(p, h.buf)
			h.buf = h.buf[n:]
			if len(h.buf) == 0 {
				h.buf = nil
			}
			h.cond.Broadcast() // wake writers blocked on a full buffer
			return n, nil
		}
		if h.wclosed {
			return 0, io.EOF
		}
		h.cond.Wait()
	}
}

func (h *halfPipe) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for {
		if h.wclosed || h.rclosed {
			return total, io.ErrClosedPipe
		}
		if h.wdl.expired() {
			return total, os.ErrDeadlineExceeded
		}
		if len(p) == 0 {
			return total, nil
		}
		if room := pipeBufferLimit - len(h.buf); room > 0 {
			n := min(room, len(p))
			h.buf = append(h.buf, p[:n]...)
			p = p[n:]
			total += n
			h.cond.Broadcast()
			continue
		}
		h.cond.Wait()
	}
}

func (h *halfPipe) closeWrite() {
	h.mu.Lock()
	h.wclosed = true
	h.quiesceLocked()
	h.mu.Unlock()
}

func (h *halfPipe) closeRead() {
	h.mu.Lock()
	h.rclosed = true
	h.quiesceLocked()
	h.mu.Unlock()
}

// quiesceLocked wakes every waiter after a close and disarms both
// deadline timers, which no waiter needs any more.
func (h *halfPipe) quiesceLocked() {
	h.rdl.stop()
	h.wdl.stop()
	h.cond.Broadcast()
}

// setDeadline sets one of this half's deadlines and wakes waiters so
// they observe it. Once either side has closed, reads drain then fail
// and writes fail, so nobody waits again and no timer is armed.
func (h *halfPipe) setDeadline(d *deadline, t time.Time) {
	h.mu.Lock()
	d.set(t, !h.wclosed && !h.rclosed)
	h.cond.Broadcast()
	h.mu.Unlock()
}

// conn is one endpoint of a duplex pipe. It implements net.Conn.
type conn struct {
	rd, wr        *halfPipe // rd: peer writes, we read; wr: we write, peer reads
	local, remote net.Addr
	closeOnce     sync.Once
	// owner, when set, holds server (this conn or its peer) in its live
	// set until either end closes; see Network.connPair.
	owner  *Network
	server *conn
}

// newConnPair returns the two endpoints of a fresh duplex connection.
func newConnPair(a, b net.Addr) (*conn, *conn) {
	ab := newHalfPipe() // a writes -> b reads
	ba := newHalfPipe() // b writes -> a reads
	ca := &conn{rd: ba, wr: ab, local: a, remote: b}
	cb := &conn{rd: ab, wr: ba, local: b, remote: a}
	return ca, cb
}

func (c *conn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *conn) Write(p []byte) (int, error) { return c.wr.write(p) }

func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeWrite()
		c.rd.closeRead()
		if c.owner != nil {
			c.owner.untrack(c.server)
		}
	})
	return nil
}

// CloseWrite half-closes the connection, signalling EOF to the peer while
// still allowing reads (like TCP FIN). httpwire uses this for tunnelling.
func (c *conn) CloseWrite() error {
	c.wr.closeWrite()
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)  //nolint:errcheck // cannot fail
	c.SetWriteDeadline(t) //nolint:errcheck // cannot fail
	return nil
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.setDeadline(&c.rd.rdl, t)
	return nil
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.wr.setDeadline(&c.wr.wdl, t)
	return nil
}
