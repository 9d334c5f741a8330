// Package faults is Scalla's deterministic fault-injection layer: a
// transport.Network wrapper that drops, delays, duplicates, and reorders
// frames, severs links, and refuses dials to crashed nodes — the
// machinery behind the chaos suite and FAULTS.md.
//
// The paper never benchmarks failure, but its architecture is shaped by
// it: the 5 s processing deadline bounds the cost of silent servers, the
// fast-response guard window turns a dead responder into a full delay
// rather than a hang, supervisors mask the loss of whole subtrees, and
// clients recover from stale locations by requesting a cache refresh
// that names the failing host (Sections III-B/III-C). This package
// exists to exercise those mechanisms on demand.
//
// Every probabilistic decision comes from one seeded generator, so a
// failing chaos run is reproducible by its seed. Faults are injected on
// the send side of every connection associated with a wrapped address
// (dialed connections by their dial target, accepted connections by
// their listener address), and each injected fault is recorded as a span
// in the configured obs.Tracer, making injected failures visible in
// /tracez right next to the resolution spans they disturb.
//
// A caveat on duplication and reordering: Scalla's data plane runs
// strict request/reply over one connection, a regime in which a
// TCP-like stream cannot duplicate or reorder frames — injecting those
// faults there desynchronizes the RPC framing itself rather than
// exercising any recovery path. Use per-link plans (SetLinkPlan) to aim
// Dup/Reorder at control-plane links, whose login/query/have/ping
// traffic is one-way and idempotent by design (Section III-B).
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"scalla/internal/obs"
	"scalla/internal/transport"
)

// Plan is a set of per-frame fault probabilities applied to the send
// side of a link. The zero Plan injects nothing.
type Plan struct {
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Dup is the probability a frame is transmitted twice.
	Dup float64
	// Delay is the probability a frame is held for a uniform duration in
	// [DelayMin, DelayMax] before transmission. Delayed frames are sent
	// asynchronously, so a delay also reorders the frame past later
	// traffic on the same link.
	Delay float64
	// DelayMin and DelayMax bound the injected delay. DelayMax of zero
	// means DelayMin exactly.
	DelayMin, DelayMax time.Duration
	// Reorder is the probability a frame is held back and transmitted
	// immediately after the next frame on the same connection (an
	// adjacent swap).
	Reorder float64
}

// Active reports whether the plan can inject anything.
func (p Plan) Active() bool {
	return p.Drop > 0 || p.Dup > 0 || p.Delay > 0 || p.Reorder > 0
}

// Config parameterizes a fault-injecting Network.
type Config struct {
	// Seed seeds the fault decision generator; equal seeds reproduce
	// equal decision sequences for a serialized schedule of sends.
	Seed int64
	// Plan is the initial global plan (overridable per link and at
	// runtime via SetPlan).
	Plan Plan
	// Tracer, if set, records one span per injected fault (op "fault",
	// path = link address, outcome = fault kind) so injections surface
	// in /tracez. A nil or disabled tracer costs one atomic load.
	Tracer *obs.Tracer
}

// Stats counts injected faults since the network was created.
type Stats struct {
	Dropped      int64 // frames discarded
	Duplicated   int64 // frames sent twice
	Delayed      int64 // frames held then sent
	Reordered    int64 // adjacent frame swaps
	SeveredConns int64 // connections closed by Sever
	RefusedDials int64 // dials refused because the address was severed
}

// Network wraps an inner transport.Network with fault injection. It is
// safe for concurrent use.
type Network struct {
	inner  transport.Network
	tracer *obs.Tracer

	rmu sync.Mutex // serializes the decision generator
	rng *rand.Rand

	mu      sync.Mutex
	plan    Plan
	links   map[string]Plan // per-address overrides
	severed map[string]bool
	conns   map[*faultConn]struct{}

	dropped, duplicated, delayed, reordered atomic.Int64
	severedConns, refusedDials              atomic.Int64
}

// Wrap returns a fault-injecting Network around inner.
func Wrap(inner transport.Network, cfg Config) *Network {
	return &Network{
		inner:   inner,
		tracer:  cfg.Tracer,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		plan:    cfg.Plan,
		links:   make(map[string]Plan),
		severed: make(map[string]bool),
		conns:   make(map[*faultConn]struct{}),
	}
}

// SetPlan replaces the global fault plan (links with a per-link override
// keep it).
func (n *Network) SetPlan(p Plan) {
	n.mu.Lock()
	n.plan = p
	n.mu.Unlock()
}

// SetLinkPlan overrides the plan for every connection associated with
// addr (dialed to it, or accepted by its listener).
func (n *Network) SetLinkPlan(addr string, p Plan) {
	n.mu.Lock()
	n.links[addr] = p
	n.mu.Unlock()
}

// ClearLinkPlan removes addr's override, returning it to the global plan.
func (n *Network) ClearLinkPlan(addr string) {
	n.mu.Lock()
	delete(n.links, addr)
	n.mu.Unlock()
}

// Sever cuts addr off: every open connection associated with it is
// closed and new dials to it are refused until Heal. Listeners stay
// bound — a severed node looks crashed or partitioned, not deregistered.
func (n *Network) Sever(addr string) {
	n.mu.Lock()
	n.severed[addr] = true
	var victims []*faultConn
	for c := range n.conns {
		if c.addr == addr {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.Close()
		n.severedConns.Add(1)
	}
	n.trace(addr, fmt.Sprintf("sever (%d conns)", len(victims)))
}

// Heal lifts a Sever: new dials to addr succeed again. Connections
// closed by the Sever stay closed; reconnection is the endpoints' job.
func (n *Network) Heal(addr string) {
	n.mu.Lock()
	delete(n.severed, addr)
	n.mu.Unlock()
	n.trace(addr, "heal")
}

// Severed reports whether addr is currently cut off.
func (n *Network) Severed(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.severed[addr]
}

// Stats returns a snapshot of the injection counters.
func (n *Network) Stats() Stats {
	return Stats{
		Dropped:      n.dropped.Load(),
		Duplicated:   n.duplicated.Load(),
		Delayed:      n.delayed.Load(),
		Reordered:    n.reordered.Load(),
		SeveredConns: n.severedConns.Load(),
		RefusedDials: n.refusedDials.Load(),
	}
}

// trace records one injected fault as a completed span.
func (n *Network) trace(addr, kind string) {
	if sp := n.tracer.Start("fault", addr); sp != nil {
		sp.End(kind)
	}
}

// planFor resolves the effective plan for a link address.
func (n *Network) planFor(addr string) Plan {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.links[addr]; ok {
		return p
	}
	return n.plan
}

// Decision classifies the outcome of one per-frame fault roll.
type Decision int

// Per-frame fault decisions, in the order the cumulative-probability
// roll checks them.
const (
	// PassThrough transmits the frame unchanged.
	PassThrough Decision = iota
	// DropFrame silently discards the frame.
	DropFrame
	// DupFrame transmits the frame twice.
	DupFrame
	// DelayFrame holds the frame for the returned duration before
	// transmission.
	DelayFrame
	// ReorderFrame holds the frame back one position (an adjacent swap).
	ReorderFrame
)

// Decide rolls one per-frame fault decision for p using rng: a single
// Float64 draw against the cumulative probabilities, plus an Int63n draw
// for the delay duration when delaying. It is exported so deterministic
// harnesses (internal/detsim) can reuse the live injector's exact
// probability semantics with a scheduler-owned generator; the Network
// wrapper calls it with its own serialized generator.
func (p Plan) Decide(rng *rand.Rand) (Decision, time.Duration) {
	r := rng.Float64()
	switch {
	case r < p.Drop:
		return DropFrame, 0
	case r < p.Drop+p.Dup:
		return DupFrame, 0
	case r < p.Drop+p.Dup+p.Delay:
		d := p.DelayMin
		if p.DelayMax > p.DelayMin {
			d += time.Duration(rng.Int63n(int64(p.DelayMax - p.DelayMin)))
		}
		return DelayFrame, d
	case r < p.Drop+p.Dup+p.Delay+p.Reorder:
		return ReorderFrame, 0
	}
	return PassThrough, 0
}

// decide serializes the network's generator around one Decide roll.
func (n *Network) decide(p Plan) (Decision, time.Duration) {
	n.rmu.Lock()
	defer n.rmu.Unlock()
	return p.Decide(n.rng)
}

// Listen passes through to the inner network; accepted connections are
// fault-wrapped under the listener's address.
func (n *Network) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{l: l, n: n, addr: addr}, nil
}

// Dial refuses severed addresses, otherwise dials through and
// fault-wraps the connection under the target address.
func (n *Network) Dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	cut := n.severed[addr]
	n.mu.Unlock()
	if cut {
		n.refusedDials.Add(1)
		return nil, fmt.Errorf("faults: link to %q severed", addr)
	}
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return n.wrap(c, addr), nil
}

// wrap registers a fault conn for addr, closing it immediately if addr
// was severed between the dial check and registration.
func (n *Network) wrap(c transport.Conn, addr string) *faultConn {
	fc := &faultConn{Conn: c, n: n, addr: addr}
	n.mu.Lock()
	cut := n.severed[addr]
	if !cut {
		n.conns[fc] = struct{}{}
	}
	n.mu.Unlock()
	if cut {
		c.Close()
	}
	return fc
}

func (n *Network) untrack(fc *faultConn) {
	n.mu.Lock()
	delete(n.conns, fc)
	n.mu.Unlock()
}

type faultListener struct {
	l    transport.Listener
	n    *Network
	addr string
}

func (fl *faultListener) Accept() (transport.Conn, error) {
	c, err := fl.l.Accept()
	if err != nil {
		return nil, err
	}
	return fl.n.wrap(c, fl.addr), nil
}

func (fl *faultListener) Close() error { return fl.l.Close() }
func (fl *faultListener) Addr() string { return fl.l.Addr() }

// faultConn injects faults on the send side; receives pass through
// untouched (the peer's sends already went through its own faultConn).
type faultConn struct {
	transport.Conn
	n    *Network
	addr string

	mu   sync.Mutex
	held []byte // frame awaiting an adjacent reorder swap
}

func (fc *faultConn) Send(frame []byte) error {
	p := fc.n.planFor(fc.addr)
	// Flush any held frame after this one regardless of new decisions,
	// so a reordered frame is displaced by exactly one position.
	if p.Active() {
		dec, d := fc.n.decide(p)
		switch dec {
		case DropFrame:
			fc.n.dropped.Add(1)
			fc.n.trace(fc.addr, "drop")
			return fc.flushHeld(nil)
		case DupFrame:
			fc.n.duplicated.Add(1)
			fc.n.trace(fc.addr, "dup")
			if err := fc.Conn.Send(frame); err != nil {
				return err
			}
			return fc.flushHeld(frame)
		case DelayFrame:
			fc.n.delayed.Add(1)
			fc.n.trace(fc.addr, fmt.Sprintf("delay %v", d))
			cp := append([]byte(nil), frame...)
			go func() {
				time.Sleep(d)
				_ = fc.Conn.Send(cp) // conn may have closed meanwhile
			}()
			return fc.flushHeld(nil)
		case ReorderFrame:
			fc.n.reordered.Add(1)
			fc.n.trace(fc.addr, "reorder")
			fc.mu.Lock()
			already := fc.held != nil
			if !already {
				fc.held = append([]byte(nil), frame...)
			}
			fc.mu.Unlock()
			if already { // one frame held at a time; send through instead
				return fc.flushHeld(frame)
			}
			return nil
		}
	}
	return fc.flushHeld(frame)
}

// flushHeld sends frame (if non-nil) and then any held reordered frame,
// completing the adjacent swap.
func (fc *faultConn) flushHeld(frame []byte) error {
	if frame != nil {
		if err := fc.Conn.Send(frame); err != nil {
			return err
		}
	}
	fc.mu.Lock()
	held := fc.held
	fc.held = nil
	fc.mu.Unlock()
	if held != nil {
		return fc.Conn.Send(held)
	}
	return nil
}

func (fc *faultConn) Close() error {
	fc.n.untrack(fc)
	return fc.Conn.Close()
}
