package main

// countingNet wraps the clients' transport.Network to count what the
// client layer puts on the wire: frames sent and connections dialed.
// It is the benchmark's own wrapper, so the count does not depend on
// transport's optional counting layer.

import (
	"sync/atomic"

	"scalla/internal/proto"
	"scalla/internal/transport"
)

type countingNet struct {
	inner  transport.Network
	frames atomic.Int64
	dials  atomic.Int64
}

func (n *countingNet) Listen(addr string) (transport.Listener, error) { return n.inner.Listen(addr) }

func (n *countingNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.dials.Add(1)
	return &countingConn{Conn: c, n: n}, nil
}

type countingConn struct {
	transport.Conn
	n *countingNet
}

func (c *countingConn) Send(frame []byte) error {
	c.n.frames.Add(1)
	return c.Conn.Send(frame)
}

// RecvFrame keeps the wrapped connection's pooled receive path.
func (c *countingConn) RecvFrame() (*proto.Frame, error) { return transport.RecvFrame(c.Conn) }
