package transport

import (
	"io"
	"sync"

	"scalla/internal/proto"
)

// schedInboxLen bounds the frames a SchedConn endpoint can hold before
// Push refuses delivery. The deterministic harness keeps at most a
// handful of frames in flight per link, so the bound exists only to make
// a runaway scheduler fail loudly instead of consuming memory.
const schedInboxLen = 1024

// SchedConn is a frame connection whose delivery is owned by an external
// scheduler, the transport of the deterministic simulation harness
// (internal/detsim). Unlike InProc, nothing moves on its own and no real
// time is involved:
//
//   - Send does not transmit. It copies the frame and hands it to the
//     pair's send hook; the scheduler decides if and when the frame
//     reaches the peer, by calling Push on the peer endpoint.
//   - RecvFrame blocks until a frame is Pushed. An optional receive hook runs
//     just before blocking, which the harness uses as the "this
//     goroutine is idle again" handshake.
//
// A SchedConn is created only in pairs via NewSchedPair. Send and
// RecvFrame follow the Conn contract (one concurrent caller each); Push is called
// by the scheduler goroutine.
type SchedConn struct {
	name     string
	peer     *SchedConn
	onSend   func(from *SchedConn, frame []byte) error
	recvHook func()

	inbox  chan []byte
	closed chan struct{}
	once   sync.Once
}

// NewSchedPair returns two connected scheduler-owned endpoints named a
// and b. Every frame written with Send on either endpoint is copied and
// passed to onSend instead of being delivered; delivering it (or not) is
// the scheduler's choice, made by calling Push on the sender's Peer. A
// nil onSend delivers directly to the peer, making the pair an
// unbuffered-latency pipe.
func NewSchedPair(a, b string, onSend func(from *SchedConn, frame []byte) error) (*SchedConn, *SchedConn) {
	ca := &SchedConn{name: a, onSend: onSend,
		inbox: make(chan []byte, schedInboxLen), closed: make(chan struct{})}
	cb := &SchedConn{name: b, onSend: onSend,
		inbox: make(chan []byte, schedInboxLen), closed: make(chan struct{})}
	ca.peer, cb.peer = cb, ca
	return ca, cb
}

// Name returns the endpoint's own name (the scheduler's link label).
func (c *SchedConn) Name() string { return c.name }

// Peer returns the other endpoint of the pair.
func (c *SchedConn) Peer() *SchedConn { return c.peer }

// SetRecvHook installs fn to be invoked by RecvFrame immediately before it
// blocks for the next frame. The harness parks an "idle" signal here.
// Install hooks before the endpoint is used; the field is not
// synchronized.
func (c *SchedConn) SetRecvHook(fn func()) { c.recvHook = fn }

// Send copies the frame and hands it to the pair's send hook. The frame
// is not delivered until the scheduler Pushes it to the peer.
func (c *SchedConn) Send(frame []byte) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	if c.onSend == nil {
		if !c.peer.Push(cp) {
			return ErrClosed
		}
		return nil
	}
	return c.onSend(c, cp)
}

// RecvFrame blocks until the scheduler Pushes a frame to this endpoint,
// running the receive hook (if any) first, and adopts the pushed slice
// (the copy Send made) as the frame's buffer. It returns io.EOF once the
// endpoint is closed and its inbox drained.
func (c *SchedConn) RecvFrame() (*proto.Frame, error) {
	if c.recvHook != nil {
		c.recvHook()
	}
	select {
	case f := <-c.inbox:
		return proto.WrapFrame(f), nil
	case <-c.closed:
		// Drain anything already delivered before reporting EOF.
		select {
		case f := <-c.inbox:
			return proto.WrapFrame(f), nil
		default:
		}
		return nil, io.EOF
	}
}

// Push makes frame available to this endpoint's RecvFrame. It reports false —
// the frame is discarded — when the endpoint is closed or its inbox is
// full. Only the scheduler calls Push.
func (c *SchedConn) Push(frame []byte) bool {
	select {
	case <-c.closed:
		return false
	default:
	}
	select {
	case c.inbox <- frame:
		return true
	default:
		return false
	}
}

// Close shuts this endpoint down: its pending and future receives unblock
// with io.EOF (after draining), and Sends fail. The peer endpoint is
// unaffected — the scheduler models half-open links explicitly.
func (c *SchedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// RemoteAddr names the peer endpoint.
func (c *SchedConn) RemoteAddr() string { return c.peer.name }
