// Package mux multiplexes many outstanding RPCs over one
// transport.Conn using the per-frame stream IDs of internal/proto —
// the pipelined wire protocol that turns the client/server exchange
// from one-request-per-round-trip lock-step into wire-saturated
// streaming (what real XRootD does with its per-request stream IDs).
//
// The package has two halves:
//
//   - The requester side: a Conn wraps a transport.Conn, assigns a
//     unique nonzero stream ID to every outgoing request, and runs one
//     demultiplexing goroutine that routes each tagged reply to the
//     Call that issued it. Any number of goroutines may Start calls
//     concurrently; a bounded in-flight table (Options.MaxInFlight)
//     provides backpressure. Per-call deadlines expire individual
//     streams without disturbing the rest; a transport failure fails
//     every in-flight stream with an error matching ErrClosed. A Pool
//     shares one Conn per remote address.
//
//   - The responder side: a server-wide Scheduler serves each
//     connection (Scheduler.Serve), running the decoded requests on
//     its worker pool under lane priority and DRR fairness, and
//     writes stream-tagged replies back as they complete — out of
//     order when handlers finish out of order.
//
// Ownership rules: a Call started on a Conn must be finished with
// exactly one Wait, WaitFrame, or Cancel, which is what releases its
// in-flight slot. Reply frames arrive pooled and belong to the Call
// once routed: Wait recycles non-aliasing replies itself, WaitFrame
// hands the frame to the caller to Release, and Cancel recycles a
// routed reply it discards. Pooled request frames are released by
// Conn.Start itself (marshal → send → release, per the transport
// ownership contract in DESIGN.md §6.2).
package mux

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"scalla/internal/proto"
	"scalla/internal/transport"
	"scalla/internal/vclock"
)

// Errors reported by the requester side.
var (
	// ErrTimeout marks a call whose per-stream deadline expired. The
	// connection and every other stream on it remain usable: a late
	// reply to the expired stream is dropped by the demultiplexer.
	ErrTimeout = errors.New("mux: stream deadline exceeded")
	// ErrClosed marks calls failed because the underlying connection
	// died or was closed; the transport-level cause is wrapped.
	ErrClosed = errors.New("mux: connection closed")
)

// Options tunes a requester-side Conn.
type Options struct {
	// MaxInFlight bounds the number of concurrent outstanding calls;
	// Start blocks once the window is full. Default 64.
	MaxInFlight int
	// Clock supplies per-call deadlines. Default vclock.Real().
	Clock vclock.Clock
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.Clock == nil {
		o.Clock = vclock.Real()
	}
	return o
}

// Conn is a multiplexing RPC connection: many goroutines issue
// concurrent calls over one shared transport.Conn, each tagged with a
// unique stream ID and matched to its reply by the demultiplexing
// goroutine. Create one with NewConn or Dial.
type Conn struct {
	c     transport.Conn
	clock vclock.Clock
	sem   chan struct{} // in-flight window; one token per started call

	mu      sync.Mutex
	streams map[uint32]*Call
	next    uint32
	dead    error // non-nil once the connection has failed

	done chan struct{} // closed when the conn dies; unblocks Start
	once sync.Once
}

// NewConn wraps c in a multiplexer and starts its demultiplexing
// goroutine. The caller must not use c directly afterwards.
func NewConn(c transport.Conn, opt Options) *Conn {
	opt = opt.withDefaults()
	mc := &Conn{
		c:       c,
		clock:   opt.Clock,
		sem:     make(chan struct{}, opt.MaxInFlight),
		streams: make(map[uint32]*Call),
		done:    make(chan struct{}),
	}
	go mc.demux()
	return mc
}

// Dial connects to addr over net and wraps the connection in a
// multiplexer.
func Dial(net transport.Network, addr string, opt Options) (*Conn, error) {
	c, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c, opt), nil
}

// RemoteAddr names the peer.
func (mc *Conn) RemoteAddr() string { return mc.c.RemoteAddr() }

// Err reports why the connection died, or nil while it is healthy.
func (mc *Conn) Err() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

// Close fails every in-flight stream with ErrClosed and tears the
// transport connection down.
func (mc *Conn) Close() error {
	mc.fail(fmt.Errorf("%w: closed locally", ErrClosed))
	return mc.c.Close()
}

// Call is one outstanding request. It must be finished with exactly
// one Wait, WaitFrame, or Cancel, which releases its slot in the
// in-flight window.
type Call struct {
	conn   *Conn
	sid    uint32
	done   chan struct{} // closed when frame/err is set
	frame  *proto.Frame
	err    error
	slotMu sync.Mutex // guards slotFreed
	freed  bool
}

// Stream returns the stream ID the request was tagged with.
func (ca *Call) Stream() uint32 { return ca.sid }

// Start sends m tagged with a fresh stream ID and returns the
// in-flight Call. It blocks while the in-flight window is full. The
// returned Call must be finished with Wait or Cancel.
func (mc *Conn) Start(m proto.Message) (*Call, error) {
	select {
	case mc.sem <- struct{}{}:
	case <-mc.done:
		return nil, mc.Err()
	}
	ca := &Call{conn: mc, done: make(chan struct{})}
	mc.mu.Lock()
	if mc.dead != nil {
		err := mc.dead
		mc.mu.Unlock()
		<-mc.sem
		return nil, err
	}
	for {
		mc.next++
		if mc.next == 0 { // stream 0 is the lock-step default; never assign it
			mc.next = 1
		}
		if _, taken := mc.streams[mc.next]; !taken {
			break
		}
	}
	ca.sid = mc.next
	mc.streams[ca.sid] = ca
	mc.mu.Unlock()

	if err := transport.SendMessageStream(mc.c, m, ca.sid); err != nil {
		// A send failure is a transport failure: fail the connection so
		// every stream (including this one) sees a typed error.
		mc.fail(fmt.Errorf("%w: send: %v", ErrClosed, err))
		ca.release()
		return nil, mc.Err()
	}
	return ca, nil
}

// Call is the synchronous convenience: Start, then Wait with the given
// deadline.
func (mc *Conn) Call(m proto.Message, timeout time.Duration) (proto.Message, error) {
	ca, err := mc.Start(m)
	if err != nil {
		return nil, err
	}
	return ca.Wait(timeout)
}

// Wait blocks for the call's reply, decoding and returning it. If
// timeout elapses first the call fails with ErrTimeout — the stream is
// abandoned (a late reply is discarded) but the connection and every
// other stream keep working.
//
// When the decoded message does not alias the reply frame's bytes (see
// proto.AliasesFrame), Wait releases the pooled frame itself and the
// caller owns the message outright. For aliasing replies (Data, Write)
// the frame stays alive for as long as the message is reachable and is
// reclaimed by the GC; hot data paths that want pooled recycling use
// WaitFrame instead.
func (ca *Call) Wait(timeout time.Duration) (proto.Message, error) {
	m, f, err := ca.WaitFrame(timeout)
	if err != nil {
		return nil, err
	}
	if !proto.AliasesFrame(m) {
		f.Release()
	}
	return m, nil
}

// WaitFrame is Wait for hot paths: it additionally returns the pooled
// reply frame, which the caller owns and must Release once every use of
// the message — whose byte fields may alias the frame — is over.
func (ca *Call) WaitFrame(timeout time.Duration) (proto.Message, *proto.Frame, error) {
	select {
	case <-ca.done:
	case <-ca.conn.clock.After(timeout):
		if ca.conn.abandon(ca) {
			ca.release()
			return nil, nil, fmt.Errorf("%w after %v (stream %d)", ErrTimeout, timeout, ca.sid)
		}
		// The reply raced the deadline and is already routed; take it.
		<-ca.done
	}
	ca.release()
	if ca.err != nil {
		return nil, nil, ca.err
	}
	m, _, err := proto.UnmarshalStream(ca.frame.Bytes())
	if err != nil {
		ca.frame.Release()
		return nil, nil, err
	}
	return m, ca.frame, nil
}

// Done returns a channel closed once the reply (or the connection's
// failure) has arrived, for select-based readahead consumers. The call
// must still be finished with Wait or Cancel.
func (ca *Call) Done() <-chan struct{} { return ca.done }

// Cancel abandons the call: its in-flight slot is released and a late
// reply will be discarded. Cancel after a reply arrived simply drops
// the reply and recycles its frame. It is safe to call at most once,
// and not after Wait.
func (ca *Call) Cancel() {
	if !ca.conn.abandon(ca) {
		// A reply already routed (or the conn failed the call); wait for
		// the routing to finish so the frame can be recycled safely.
		<-ca.done
		if ca.frame != nil {
			ca.frame.Release()
		}
	}
	ca.release()
}

// release frees the call's in-flight window slot exactly once.
func (ca *Call) release() {
	ca.slotMu.Lock()
	freed := ca.freed
	ca.freed = true
	ca.slotMu.Unlock()
	if !freed {
		<-ca.conn.sem
	}
}

// abandon removes the call from the stream table, reporting whether it
// was still pending (false means a reply was already routed or the
// conn failed the call).
func (mc *Conn) abandon(ca *Call) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if cur, ok := mc.streams[ca.sid]; ok && cur == ca {
		delete(mc.streams, ca.sid)
		return true
	}
	return false
}

// fail marks the connection dead and fails every in-flight stream.
func (mc *Conn) fail(err error) {
	mc.mu.Lock()
	if mc.dead == nil {
		mc.dead = err
		for sid, ca := range mc.streams {
			delete(mc.streams, sid)
			ca.err = err
			close(ca.done)
		}
	}
	mc.mu.Unlock()
	mc.once.Do(func() { close(mc.done) })
}

// demux is the connection's receive loop: it routes each tagged reply
// to its waiting call and fails everything when the transport dies.
// Replies arrive in pooled frames (Conn.RecvFrame); ownership
// passes to the routed Call, and late replies to expired or cancelled
// streams are released here.
func (mc *Conn) demux() {
	for {
		f, err := mc.c.RecvFrame()
		if err != nil {
			mc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		sid := proto.StreamID(f.Bytes())
		mc.mu.Lock()
		ca, ok := mc.streams[sid]
		if ok {
			delete(mc.streams, sid)
		}
		mc.mu.Unlock()
		if !ok {
			f.Release() // late reply to an expired or cancelled stream
			continue
		}
		ca.frame = f
		close(ca.done)
	}
}
