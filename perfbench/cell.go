package main

// The cell under test: one manager and 64 data servers, each a
// cmsd.Node on its own 127.0.0.1 TCP port, all in this process and
// sharing one transport.TCPNet (so its wire counters describe the whole
// cell). Paper defaults throughout: 5 s full delay, 133 ms fast
// response period, in-memory stores.

import (
	"fmt"
	"net"
	"time"

	"scalla/internal/cmsd"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
)

// cellServers is the paper's cell size: a 64-ary redirector fanout.
const cellServers = 64

// fullDelay is the paper's full delay (Section III-B).
const fullDelay = 5 * time.Second

type cell struct {
	net     *transport.TCPNet
	mgr     *cmsd.Node
	servers []*cmsd.Node
	stores  []*store.Store
	byAddr  map[string]int // data address -> index into servers
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// node to bind, as the repository's TCP rigs do.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// startCell brings the manager and its servers up and waits until all
// of them are logged in and online.
func startCell(servers int) (*cell, error) {
	c := &cell{net: transport.TCP(), byAddr: make(map[string]int)}
	mgrData, err := freeAddr()
	if err != nil {
		return nil, err
	}
	mgrCtl, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c.mgr, err = cmsd.NewNode(cmsd.NodeConfig{
		Name: "mgr", Role: proto.RoleManager,
		DataAddr: mgrData, CtlAddr: mgrCtl, Net: c.net,
		Core: cmsd.Config{FullDelay: fullDelay},
	})
	if err != nil {
		return nil, err
	}
	if err := c.mgr.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < servers; i++ {
		addr, err := freeAddr()
		if err != nil {
			c.stop()
			return nil, err
		}
		st := store.New(store.Config{})
		srv, err := cmsd.NewNode(cmsd.NodeConfig{
			Name: fmt.Sprintf("srv%02d", i), Role: proto.RoleServer,
			DataAddr: addr, Parents: []string{mgrCtl}, Prefixes: []string{"/"},
			Net: c.net, Store: st,
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		if err := srv.Start(); err != nil {
			c.stop()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.stores = append(c.stores, st)
		c.byAddr[addr] = i
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.mgr.Core().Table().Summary().Online < servers {
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("cell: only %d of %d servers online after 30 s",
				c.mgr.Core().Table().Summary().Online, servers)
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// stop shuts every node down and waits for their goroutines.
func (c *cell) stop() {
	for _, s := range c.servers {
		s.Stop()
	}
	if c.mgr != nil {
		c.mgr.Stop()
	}
}

func (c *cell) mgrAddr() string { return c.mgr.DataAddr() }

// serverAt returns the index of the server the manager's membership
// slot names, so placement can follow what the manager will select.
func (c *cell) serverAt(slot int) (int, error) {
	m, ok := c.mgr.Core().Table().Member(slot)
	if !ok {
		return 0, fmt.Errorf("cell: no member in slot %d", slot)
	}
	i, ok := c.byAddr[m.DataAddr]
	if !ok {
		return 0, fmt.Errorf("cell: slot %d names unknown server %s", slot, m.DataAddr)
	}
	return i, nil
}

// preload places every file of ns on its seeded server, with its seeded
// content of the given size.
func (c *cell) preload(ns namespace, size int) error {
	buf := make([]byte, size)
	for i := 0; i < ns.n; i++ {
		name := ns.name(i)
		fillContent(contentKey(ns.seed, name), 0, buf)
		if err := c.stores[ns.server(i, len(c.stores))].Put(name, buf); err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
	}
	return nil
}
