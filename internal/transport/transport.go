// Package transport moves protocol frames between Scalla daemons — the
// point-to-point links of the paper's cell hierarchy (Section II-B):
// child-to-parent control connections, query fan-out links, and the
// client data plane.
//
// Two implementations are provided. TCP carries frames over real
// sockets with a 4-byte length prefix — what production deployments
// use. InProc carries frames over channels inside one process, with
// configurable one-way latency; the benchmark harness uses it to
// emulate the paper's LAN regime (~50 µs one-way) deterministically and
// to build thousand-node clusters in one process. For fault injection
// beyond InProc's simple dial partition (drop, delay, duplicate,
// reorder, link severing) wrap either Network with package
// scalla/internal/faults.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"scalla/internal/proto"
)

// MaxFrame is the largest frame either implementation will carry.
// Scalla frames are small (names plus vectors); data-plane reads are
// chunked well below this by the server.
const MaxFrame = 16 << 20

// ErrClosed is returned by operations on a closed connection or
// listener.
var ErrClosed = errors.New("transport: closed")

// Conn is a bidirectional, frame-oriented connection. Send is safe for
// any number of concurrent callers — implementations either serialize
// writers internally or coalesce their frames into shared write batches
// (the TCP conn's group-commit writer) — while RecvFrame is safe for one
// concurrent caller. Distinct goroutines may send and receive
// simultaneously.
type Conn interface {
	// Send transmits one frame. Send must finish with the frame slice
	// before returning (write it out or copy it): callers such as
	// SendMessage recycle the buffer into a pool the moment Send
	// returns. An implementation that retains frames asynchronously
	// must copy them first.
	Send(frame []byte) error
	// RecvFrame blocks for the next frame and returns it in a pooled
	// buffer, so a warmed receive loop allocates nothing. It returns
	// io.EOF after the peer closes. The caller owns the frame and must
	// Release it once every use of the frame — and of anything decoded
	// from it whose byte fields alias it (see proto.AliasesFrame) — is
	// over.
	RecvFrame() (*proto.Frame, error)
	// Close tears the connection down; pending receives unblock.
	Close() error
	// RemoteAddr names the peer, for logging and redirection.
	RemoteAddr() string
}

// RecvFrame receives the next frame from c; it is c.RecvFrame as a
// function.
func RecvFrame(c Conn) (*proto.Frame, error) { return c.RecvFrame() }

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the address peers dial to reach this listener.
	Addr() string
}

// Network abstracts dialing and listening so daemons run unchanged over
// TCP or in-process channels.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// ------------------------------------------------------------------ TCP

// TCPNet is the production Network backed by the net package. Every
// connection it creates shares one WireStats block, so an operator (or
// the bench harness) can read traffic and syscall-amortization
// effectiveness — frames and bytes sent, frames per writev batch, flush
// reasons, frames per read call — off the live network.
type TCPNet struct {
	stats WireStats
}

// TCP returns the production Network backed by the net package.
// Listen("host:0") picks a free port; Listener.Addr reports it.
func TCP() *TCPNet { return &TCPNet{} }

// Wire snapshots the network's wire counters.
func (n *TCPNet) Wire() WireSnapshot { return n.stats.Snapshot() }

// Listen binds a real TCP listener on addr.
func (n *TCPNet) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l, stats: &n.stats}, nil
}

// Dial opens a real TCP connection to addr.
func (n *TCPNet) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	n.stats.recordDial()
	return newTCPConn(c, &n.stats), nil
}

type tcpListener struct {
	l     net.Listener
	stats *WireStats
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c, t.stats), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// recvBufSize is the buffered reader's window: one read syscall slurps
// up to this many bytes, so a burst of small frames (Have floods,
// pipelined acks) decodes out of a single kernel crossing. Reads larger
// than the buffer pass through bufio directly.
const recvBufSize = 64 << 10

// wbatch is one group-commit write batch: the frames (with their length
// prefixes) queued by concurrent senders that will leave in a single
// vectored write. Every sender whose frame joined a batch blocks until
// the batch is on the wire — the Send ownership contract — so bufs may
// alias caller frames without copying.
type wbatch struct {
	bufs  net.Buffers
	hdrs  []*[4]byte // length prefixes; stable arrays from the freelist
	bytes int
	done  chan struct{} // closed once the batch is written (or failed)
	err   error
}

// tcpConn carries frames over one socket with a 4-byte length prefix,
// amortizing syscalls in both directions: sends coalesce into vectored
// write batches (group commit — an idle wire flushes immediately, and
// frames arriving during a flush drain together in the next one), and
// receives decode many frames per read syscall out of a buffered
// reader, into pooled frames.
type tcpConn struct {
	c      net.Conn
	stats  *WireStats
	writev bool // *net.TCPConn: net.Buffers.WriteTo is one writev per batch

	rmu  sync.Mutex
	br   *bufio.Reader
	rhdr [4]byte // persistent header scratch; keeps ReadFull's arg off the heap

	wmu      sync.Mutex
	werr     error      // sticky write error; the stream is corrupt past it
	flushing bool       // a leader goroutine is draining batches
	batch    *wbatch    // frames accumulated for the next flush, nil if none
	hdrFree  []*[4]byte // recycled length-prefix arrays
}

func newTCPConn(c net.Conn, stats *WireStats) *tcpConn {
	tc, isTCP := c.(*net.TCPConn)
	if isTCP {
		tc.SetNoDelay(true) // latency matters more than throughput here
	}
	return &tcpConn{
		c:      c,
		stats:  stats,
		writev: isTCP,
		br:     bufio.NewReaderSize(statReader{c: c, stats: stats}, recvBufSize),
	}
}

// Send queues the frame on the connection's current write batch and
// blocks until that batch is on the wire. The first sender onto an idle
// wire becomes the flush leader and writes immediately — lock-step
// latency never waits — while senders arriving during an in-flight
// write coalesce into the next batch, which the leader drains in one
// vectored write before handing the wire back.
func (t *tcpConn) Send(frame []byte) error {
	if len(frame) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(frame))
	}
	t.wmu.Lock()
	if t.werr != nil {
		t.wmu.Unlock()
		return t.werr
	}
	h := t.getHdrLocked()
	binary.BigEndian.PutUint32(h[:], uint32(len(frame)))
	b := t.batch
	if b == nil {
		b = &wbatch{done: make(chan struct{})}
		t.batch = b
	}
	b.bufs = append(b.bufs, h[:], frame)
	b.hdrs = append(b.hdrs, h)
	b.bytes += len(frame) + 4
	if t.flushing {
		// A leader is mid-write and will drain this batch next; the
		// frame must be on the wire before Send returns, so wait for it.
		t.wmu.Unlock()
		<-b.done
		return b.err
	}
	t.flushing = true
	t.wmu.Unlock()
	// The group-commit window: one scheduler yield before draining, so
	// senders that are already runnable can append to the batch and ride
	// this flush. On an idle wire with no competing work Gosched returns
	// immediately — this is a yield, not a Nagle-style timed delay — and
	// it is what lets coalescing happen even when a single CPU never
	// preempts the leader mid-writev.
	runtime.Gosched()
	t.wmu.Lock()
	backlog := false
	for t.batch != nil && t.werr == nil {
		cur := t.batch
		t.batch = nil
		t.wmu.Unlock()
		err := t.writeBatch(cur.bufs)
		t.wmu.Lock()
		t.stats.recordFlush(len(cur.hdrs), cur.bytes, backlog)
		backlog = true
		if err != nil {
			// A partial batch write leaves the stream misaligned; every
			// later Send must fail rather than interleave garbage.
			t.werr = err
		}
		cur.err = err
		t.hdrFree = append(t.hdrFree, cur.hdrs...)
		close(cur.done)
	}
	if t.werr != nil {
		// Fail any batch queued behind the write that broke the stream.
		if p := t.batch; p != nil {
			t.batch = nil
			p.err = t.werr
			t.hdrFree = append(t.hdrFree, p.hdrs...)
			close(p.done)
		}
	}
	t.flushing = false
	t.wmu.Unlock()
	// The leader's own frame was in the first batch it flushed.
	<-b.done
	return b.err
}

// getHdrLocked pops a length-prefix array off the freelist. The arrays
// must be individually stable — batch iovecs alias them until the flush
// completes — which is why this is a freelist of pointers, not a slab.
func (t *tcpConn) getHdrLocked() *[4]byte {
	if n := len(t.hdrFree); n > 0 {
		h := t.hdrFree[n-1]
		t.hdrFree = t.hdrFree[:n-1]
		return h
	}
	return new([4]byte)
}

// writeBatch puts one batch on the wire. Real sockets take the
// net.Buffers fast path — a single writev per batch, with the runtime
// handling IOV_MAX and partial writes. Other writers (test shims,
// wrappers) get a per-buffer loop that tolerates contract-violating
// short writes.
func (t *tcpConn) writeBatch(bufs net.Buffers) error {
	if t.writev {
		_, err := bufs.WriteTo(t.c)
		return err
	}
	for _, b := range bufs {
		for len(b) > 0 {
			n, err := t.c.Write(b)
			if err != nil {
				return err
			}
			if n <= 0 {
				return io.ErrNoProgress
			}
			b = b[n:]
		}
	}
	return nil
}

// readFrameSize reads the next frame's length prefix. An oversized
// header is protocol-fatal: nothing after it can be framed, so the
// connection is closed rather than left misaligned for the next read.
func (t *tcpConn) readFrameSize() (int, error) {
	if _, err := io.ReadFull(t.br, t.rhdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(t.rhdr[:])
	if n > MaxFrame {
		t.c.Close()
		return 0, fmt.Errorf("transport: oversized frame header %d", n)
	}
	return int(n), nil
}

// RecvFrame decodes the next frame into a recycled buffer, so a warmed
// receive loop allocates nothing. The caller owns the frame.
func (t *tcpConn) RecvFrame() (*proto.Frame, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	n, err := t.readFrameSize()
	if err != nil {
		return nil, err
	}
	f := proto.GetFrame(n)
	if _, err := io.ReadFull(t.br, f.Bytes()); err != nil {
		f.Release()
		return nil, err
	}
	t.stats.recordFrameIn()
	return f, nil
}

func (t *tcpConn) Close() error       { return t.c.Close() }
func (t *tcpConn) RemoteAddr() string { return t.c.RemoteAddr().String() }

// statReader counts read syscalls and bytes for the wire stats as the
// buffered reader refills.
type statReader struct {
	c     net.Conn
	stats *WireStats
}

func (r statReader) Read(p []byte) (int, error) {
	n, err := r.c.Read(p)
	r.stats.recordRead(n)
	return n, err
}

// --------------------------------------------------------------- InProc

// InProcConfig tunes the in-process network.
type InProcConfig struct {
	// Latency is the one-way frame delay, emulating the interconnect.
	// Zero means instantaneous delivery.
	Latency time.Duration
	// QueueLen is the per-direction frame buffer. Default 256.
	QueueLen int
}

// InProc is an in-process Network. Addresses are arbitrary strings.
// Its connections share one WireStats block that counts dials and each
// successful Send as one frame of len(frame) bytes; there is no length
// prefix and no syscall, so the writev and read counters stay zero.
type InProc struct {
	cfg   InProcConfig
	stats WireStats

	mu        sync.Mutex
	listeners map[string]*inprocListener
	cut       map[string]bool // partitioned addresses
}

// NewInProc returns an empty in-process network.
func NewInProc(cfg InProcConfig) *InProc {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	return &InProc{
		cfg:       cfg,
		listeners: make(map[string]*inprocListener),
		cut:       make(map[string]bool),
	}
}

// Wire snapshots the network's wire counters.
func (n *InProc) Wire() WireSnapshot { return n.stats.Snapshot() }

// SetReachable with reachable=false partitions addr for new dials
// (existing connections survive, as with a real routing change); with
// reachable=true it heals the partition.
func (n *InProc) SetReachable(addr string, reachable bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if reachable {
		delete(n.cut, addr)
	} else {
		n.cut[addr] = true
	}
}

// Listen binds addr, an arbitrary unique string, on the in-process
// network.
func (n *InProc) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %q already bound", addr)
	}
	l := &inprocListener{
		net:     n,
		addr:    addr,
		backlog: make(chan *inprocConn, 64),
		done:    make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a bound listener, failing if addr is unbound or
// partitioned.
func (n *InProc) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	cut := n.cut[addr]
	n.mu.Unlock()
	if !ok || cut {
		return nil, fmt.Errorf("transport: connection refused to %q", addr)
	}
	a, b := n.pipe(addr)
	select {
	case l.backlog <- b:
		n.stats.recordDial()
		return a, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// pipe builds two connected endpoints. Endpoint a's remote is addr;
// endpoint b's remote is "client".
func (n *InProc) pipe(addr string) (*inprocConn, *inprocConn) {
	ab := make(chan frame, n.cfg.QueueLen)
	ba := make(chan frame, n.cfg.QueueLen)
	closed := make(chan struct{})
	var once sync.Once
	closeFn := func() { once.Do(func() { close(closed) }) }
	a := &inprocConn{send: ab, recv: ba, closed: closed, closeFn: closeFn, remote: addr, lat: n.cfg.Latency, stats: &n.stats}
	b := &inprocConn{send: ba, recv: ab, closed: closed, closeFn: closeFn, remote: "client", lat: n.cfg.Latency, stats: &n.stats}
	return a, b
}

type inprocListener struct {
	net     *InProc
	addr    string
	backlog chan *inprocConn
	done    chan struct{}
	once    sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

type frame struct {
	f       *proto.Frame
	readyAt time.Time // latency emulation: not deliverable before this
}

type inprocConn struct {
	send    chan frame
	recv    chan frame
	closed  chan struct{}
	closeFn func()
	remote  string
	lat     time.Duration
	stats   *WireStats
}

func (c *inprocConn) Send(b []byte) error {
	if len(b) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(b))
	}
	// A closed conn must refuse the frame even while its queue has room,
	// so a send after Close never reports success.
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	// Send must not retain the caller's slice after returning, so the
	// in-flight copy lives in a pooled frame that the receiver releases.
	f := frame{f: proto.CopyFrame(b)}
	if c.lat > 0 {
		f.readyAt = time.Now().Add(c.lat)
	}
	select {
	case c.send <- f:
		c.stats.recordSend(len(b))
		return nil
	case <-c.closed:
		f.f.Release()
		return ErrClosed
	}
}

// RecvFrame pulls the next in-flight frame, honoring the emulated link
// latency. The caller owns the returned frame.
func (c *inprocConn) RecvFrame() (*proto.Frame, error) {
	select {
	case f := <-c.recv:
		if !f.readyAt.IsZero() {
			// time.Sleep granularity is ~1ms on coarse-timer kernels,
			// far above the microsecond link latencies the benchmarks
			// emulate; spin out short remainders instead.
			for {
				d := time.Until(f.readyAt)
				if d <= 0 {
					break
				}
				if d > 2*time.Millisecond {
					time.Sleep(d - time.Millisecond)
				} else {
					runtime.Gosched()
				}
			}
		}
		return f.f, nil
	case <-c.closed:
		// Drain anything already queued before reporting EOF, so a
		// close immediately after a send does not lose the frame.
		select {
		case f := <-c.recv:
			return f.f, nil
		default:
		}
		return nil, io.EOF
	}
}

func (c *inprocConn) Close() error {
	c.closeFn()
	return nil
}

func (c *inprocConn) RemoteAddr() string { return c.remote }
