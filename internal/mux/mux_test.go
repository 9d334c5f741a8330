package mux

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"scalla/internal/proto"
	"scalla/internal/transport"
)

// reorderServer accepts one connection and answers Stat requests with
// StatOK{Size: <per-path token>}, shuffling replies within batches so
// responses leave the server out of order. A partial batch is answered
// once no request has arrived for batchIdle, so callers that wait on
// their replies before sending more cannot stall it. Paths named
// "/black-hole" are swallowed (never answered) until release is
// closed, after which their replies are sent late.
func reorderServer(t *testing.T, net transport.Network, addr string, batch int, release <-chan struct{}) {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		type req struct {
			sid  uint32
			size int64
		}
		var (
			mu   sync.Mutex
			held []req
		)
		if release != nil {
			go func() {
				<-release
				mu.Lock()
				for _, r := range held {
					transport.SendMessageStream(conn, proto.StatOK{Exists: true, Size: r.size}, r.sid)
				}
				held = nil
				mu.Unlock()
			}()
		}
		// Sized to the 64 in-flight streams the tests use, so the reader
		// never waits on the batcher.
		reqs := make(chan req, 64)
		go func() {
			defer close(reqs)
			for {
				frame, err := conn.Recv()
				if err != nil {
					return
				}
				m, sid, err := proto.UnmarshalStream(frame)
				if err != nil {
					return
				}
				st, ok := m.(proto.Stat)
				if !ok {
					continue
				}
				if st.Path == "/black-hole" {
					mu.Lock()
					held = append(held, req{sid: sid, size: -1})
					mu.Unlock()
					continue
				}
				var size int64
				fmt.Sscanf(st.Path, "/f%d", &size)
				reqs <- req{sid: sid, size: size}
			}
		}()
		rng := rand.New(rand.NewSource(42))
		pending := make([]req, 0, batch)
		flush := func() {
			rng.Shuffle(len(pending), func(i, j int) {
				pending[i], pending[j] = pending[j], pending[i]
			})
			for _, r := range pending {
				transport.SendMessageStream(conn, proto.StatOK{Exists: true, Size: r.size}, r.sid)
			}
			pending = pending[:0]
		}
		const batchIdle = 2 * time.Millisecond
		for {
			var idle <-chan time.Time
			if len(pending) > 0 {
				idle = time.After(batchIdle)
			}
			select {
			case r, ok := <-reqs:
				if !ok {
					return
				}
				pending = append(pending, r)
				if len(pending) >= batch {
					flush()
				}
			case <-idle:
				flush()
			}
		}
	}()
}

// TestConcurrentCallsSurviveReordering drives 64 goroutines over one
// shared multiplexed connection against a server that shuffles its
// replies, checking every caller gets the reply for its own stream.
func TestConcurrentCallsSurviveReordering(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	reorderServer(t, net, "srv", 8, nil)
	mc, err := Dial(net, "srv", Options{MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	const goroutines = 64
	const perG = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				token := g*perG + i
				reply, err := mc.Call(proto.Stat{Path: fmt.Sprintf("/f%d", token)}, 10*time.Second)
				if err != nil {
					errs <- err
					return
				}
				ok, isOK := reply.(proto.StatOK)
				if !isOK {
					errs <- fmt.Errorf("token %d: got %T", token, reply)
					return
				}
				if ok.Size != int64(token) {
					errs <- fmt.Errorf("token %d: reply routed to wrong stream (size %d)", token, ok.Size)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStreamTimeoutLeavesOthersRunning expires one stream's deadline
// while other streams on the same connection keep completing, then
// releases the late reply and checks it is discarded without
// disturbing later calls.
func TestStreamTimeoutLeavesOthersRunning(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	release := make(chan struct{})
	reorderServer(t, net, "srv", 1, release)
	mc, err := Dial(net, "srv", Options{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	stuck, err := mc.Start(proto.Stat{Path: "/black-hole"})
	if err != nil {
		t.Fatal(err)
	}
	// Other streams proceed while the black-holed one is pending.
	for i := 0; i < 4; i++ {
		reply, err := mc.Call(proto.Stat{Path: fmt.Sprintf("/f%d", i)}, 5*time.Second)
		if err != nil {
			t.Fatalf("concurrent call %d: %v", i, err)
		}
		if ok := reply.(proto.StatOK); ok.Size != int64(i) {
			t.Fatalf("concurrent call %d: size %d", i, ok.Size)
		}
	}
	if _, err := stuck.Wait(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("stuck.Wait = %v, want ErrTimeout", err)
	}
	if mc.Err() != nil {
		t.Fatalf("per-stream timeout killed the connection: %v", mc.Err())
	}
	// Release the late reply; the demultiplexer must drop it and keep
	// serving fresh streams.
	close(release)
	reply, err := mc.Call(proto.Stat{Path: "/f99"}, 5*time.Second)
	if err != nil {
		t.Fatalf("call after late reply: %v", err)
	}
	if ok := reply.(proto.StatOK); ok.Size != 99 {
		t.Fatalf("late reply leaked into a fresh stream: size %d", ok.Size)
	}
}

// TestConnDeathFailsAllStreams kills the transport under a pile of
// in-flight streams and checks each fails with an error matching
// ErrClosed, and that new calls fail fast.
func TestConnDeathFailsAllStreams(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
		for { // swallow requests, never answer
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()

	mc, err := Dial(net, "srv", Options{MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	const inflight = 16
	calls := make([]*Call, inflight)
	for i := range calls {
		if calls[i], err = mc.Start(proto.Ping{}); err != nil {
			t.Fatal(err)
		}
	}
	(<-accepted).Close()

	for i, ca := range calls {
		if _, err := ca.Wait(10 * time.Second); !errors.Is(err, ErrClosed) {
			t.Errorf("stream %d: err = %v, want ErrClosed", i, err)
		}
	}
	if _, err := mc.Call(proto.Ping{}, time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("call on dead conn: err = %v, want ErrClosed", err)
	}
	if mc.Err() == nil {
		t.Error("Err() = nil on a dead connection")
	}
}

// TestPoolSharesAndReplacesConns checks the keyed pool hands every
// caller the same live connection and replaces it once it dies.
func TestPoolSharesAndReplacesConns(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	reorderServer(t, net, "srv", 1, nil)
	p := NewPool(net, Options{})
	defer p.Close()

	a, err := p.Get("srv")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get("srv")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("pool handed out two connections for one address")
	}
	p.Drop("srv", a)
	if a.Err() == nil {
		t.Fatal("dropped connection not closed")
	}
}

// TestInFlightWindowBackpressure checks Start blocks once MaxInFlight
// streams are outstanding and unblocks as slots free.
func TestInFlightWindowBackpressure(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	release := make(chan struct{})
	reorderServer(t, net, "srv", 1, release)
	mc, err := Dial(net, "srv", Options{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	c1, err := mc.Start(proto.Stat{Path: "/black-hole"})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := mc.Start(proto.Stat{Path: "/black-hole"})
	if err != nil {
		t.Fatal(err)
	}
	third := make(chan struct{})
	go func() {
		ca, err := mc.Start(proto.Stat{Path: "/f1"})
		if err == nil {
			ca.Cancel()
		}
		close(third)
	}()
	select {
	case <-third:
		t.Fatal("third Start did not block on a full window")
	case <-time.After(50 * time.Millisecond):
	}
	c1.Cancel() // frees a slot
	select {
	case <-third:
	case <-time.After(5 * time.Second):
		t.Fatal("Start stayed blocked after a slot freed")
	}
	c2.Cancel()
}
