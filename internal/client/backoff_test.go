package client

import (
	"sync/atomic"
	"testing"
	"time"

	"scalla/internal/proto"
	"scalla/internal/transport"
	"scalla/internal/vclock"
)

// TestWaitVerdictSleepsFullDelayBeforeRetry pins the client half of the
// ErrFull/full-delay contract: a Wait verdict from the manager (issued
// when the fast response queue is full or an entry expires) must put
// the client to sleep for exactly the advertised delay — one quiet
// sleep, not a retry spin against the manager. The fake clock stays
// frozen through a real-time grace window to prove no traffic moves,
// then one Advance of the full delay releases the single retry.
func TestWaitVerdictSleepsFullDelayBeforeRetry(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	ln, err := net.Listen("mgr:data")
	if err != nil {
		t.Fatal(err)
	}
	var locates atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				for {
					f, err := c.RecvFrame()
					if err != nil {
						return
					}
					m, sid, err := proto.UnmarshalStream(f.Bytes())
					f.Release()
					if err != nil {
						return
					}
					if _, ok := m.(proto.Locate); !ok {
						continue
					}
					if locates.Add(1) == 1 {
						transport.SendMessageStream(c, proto.Wait{Millis: 5000}, sid)
					} else {
						transport.SendMessageStream(c, proto.Redirect{Addr: "srv:data"}, sid)
					}
				}
			}(c)
		}
	}()

	clk := vclock.NewFake()
	cl := New(Config{Net: net, Managers: []string{"mgr:data"}, Clock: clk})
	t.Cleanup(cl.Close)

	got := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		addr, err := cl.Locate("/cold", false)
		if err != nil {
			errc <- err
			return
		}
		got <- addr
	}()

	// Wait (real time) for the first Locate to be answered with the
	// 5 s wait verdict.
	deadline := time.Now().Add(5 * time.Second)
	for locates.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first Locate never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// With the fake clock frozen, the client must stay silent: any
	// further Locate inside the delay is a retry spin.
	time.Sleep(75 * time.Millisecond)
	if n := locates.Load(); n != 1 {
		t.Fatalf("client sent %d Locates during the full delay; must sleep it out", n)
	}

	// Two fake waiters are pending: the abandoned RPC-timeout timer of
	// the answered exchange and the full-delay sleep. Advancing the
	// full delay releases the sleep and exactly one retry.
	clk.BlockUntil(2)
	clk.Advance(5 * time.Second)

	select {
	case addr := <-got:
		if addr != "srv:data" {
			t.Fatalf("addr = %q, want srv:data", addr)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("Locate did not complete once the full delay elapsed")
	}
	if n := locates.Load(); n != 2 {
		t.Fatalf("locates = %d, want exactly 2 (one attempt per full delay)", n)
	}
}
