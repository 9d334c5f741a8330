package transport

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"scalla/internal/proto"
)

// exercise runs the common Conn contract against any Network.
func exercise(t *testing.T, n Network, addr string) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type acc struct {
		c   Conn
		err error
	}
	accCh := make(chan acc, 1)
	go func() {
		c, err := l.Accept()
		accCh <- acc{c, err}
	}()

	cli, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	a := <-accCh
	if a.err != nil {
		t.Fatal(a.err)
	}
	srv := a.c
	defer srv.Close()

	// Client → server.
	msg := []byte("hello scalla")
	if err := cli.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := srv.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("got %q, want %q", got.Bytes(), msg)
	}
	got.Release()

	// Server → client, several frames preserving boundaries and order.
	for i := 0; i < 10; i++ {
		if err := srv.Send([]byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := cli.RecvFrame()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("frame-%d", i); string(got.Bytes()) != want {
			t.Fatalf("frame %d: got %q, want %q", i, got.Bytes(), want)
		}
		got.Release()
	}

	// Empty frame is legal.
	if err := cli.Send(nil); err != nil {
		t.Fatal(err)
	}
	if got, err := srv.RecvFrame(); err != nil || len(got.Bytes()) != 0 {
		t.Fatalf("empty frame: %v, %v", got, err)
	} else {
		got.Release()
	}

	// Close unblocks the peer's RecvFrame with EOF.
	cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var f *proto.Frame
		f, err = srv.RecvFrame()
		if err != nil {
			break
		}
		f.Release()
		if time.Now().After(deadline) {
			t.Fatal("RecvFrame never unblocked after peer close")
		}
	}
	if err != io.EOF && err != ErrClosed {
		// TCP surfaces close as EOF; inproc as EOF too. Either is fine,
		// but it must be a terminal error.
		t.Logf("terminal error: %v", err)
	}
}

func TestTCPConnContract(t *testing.T) {
	exercise(t, TCP(), "127.0.0.1:0")
}

func TestInProcConnContract(t *testing.T) {
	exercise(t, NewInProc(InProcConfig{}), "node-a")
}

func TestInProcDialUnknownAddr(t *testing.T) {
	n := NewInProc(InProcConfig{})
	if _, err := n.Dial("nowhere"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
}

func TestInProcDuplicateBind(t *testing.T) {
	n := NewInProc(InProcConfig{})
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
	l.Close()
	// Address is reusable after close.
	if _, err := n.Listen("a"); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestInProcPartition(t *testing.T) {
	n := NewInProc(InProcConfig{})
	l, _ := n.Listen("srv")
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	if _, err := n.Dial("srv"); err != nil {
		t.Fatalf("pre-partition dial: %v", err)
	}
	n.SetReachable("srv", false)
	if _, err := n.Dial("srv"); err == nil {
		t.Fatal("dial through partition succeeded")
	}
	n.SetReachable("srv", true)
	if _, err := n.Dial("srv"); err != nil {
		t.Fatalf("post-heal dial: %v", err)
	}
}

func TestInProcLatency(t *testing.T) {
	n := NewInProc(InProcConfig{Latency: 20 * time.Millisecond})
	l, _ := n.Listen("srv")
	defer l.Close()
	connCh := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	cli, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-connCh

	start := time.Now()
	cli.Send([]byte("x"))
	f, err := srv.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if d := time.Since(start); d < 18*time.Millisecond {
		t.Errorf("one-way delivery took %v, want >= ~20ms", d)
	}
}

func TestInProcCloseDrainsPendingFrame(t *testing.T) {
	n := NewInProc(InProcConfig{})
	l, _ := n.Listen("srv")
	defer l.Close()
	connCh := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept()
		connCh <- c
	}()
	cli, _ := n.Dial("srv")
	srv := <-connCh
	cli.Send([]byte("last words"))
	cli.Close()
	got, err := srv.RecvFrame()
	if err != nil || string(got.Bytes()) != "last words" {
		t.Fatalf("lost frame sent before close: %v, %v", got, err)
	}
	got.Release()
}

// TestInProcWireCounters checks the in-process network's counter block:
// one dial per successful Dial, and one frame of len(frame) bytes per
// successful Send. A refused dial, an oversized frame and a send on a
// closed conn count nothing.
func TestInProcWireCounters(t *testing.T) {
	n := NewInProc(InProcConfig{})
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acc := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			acc <- c
		}
	}()
	cli, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-acc
	if _, err := n.Dial("nowhere"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
	if w := n.Wire(); w.Dials != 1 || w.FramesOut != 0 || w.Summary() != nil {
		t.Fatalf("after one dial: %+v", w)
	}

	if err := cli.Send([]byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send([]byte("123")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	w := n.Wire()
	if w.FramesOut != 2 || w.BytesOut != 8 || w.Dials != 1 {
		t.Fatalf("after two sends: frames=%d bytes=%d dials=%d, want 2, 8, 1", w.FramesOut, w.BytesOut, w.Dials)
	}
	if w.Writevs != 0 || w.ReadCalls != 0 {
		t.Fatalf("in-process network counted syscalls: %+v", w)
	}
	if s := w.Summary(); s == nil || s.FramesOut != 2 || s.BytesOut != 8 || s.Dials != 1 {
		t.Fatalf("summary = %+v, want frames=2 bytes=8 dials=1", s)
	}

	cli.Close()
	for i := 0; i < 10; i++ {
		if err := cli.Send([]byte("late")); err == nil {
			t.Fatal("send on a closed conn succeeded")
		}
	}
	if got := n.Wire(); got != w {
		t.Fatalf("failed sends were counted: %+v, want %+v", got, w)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	n := NewInProc(InProcConfig{})
	l, _ := n.Listen("srv")
	defer l.Close()
	go l.Accept()
	cli, _ := n.Dial("srv")
	if err := cli.Send(make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestTCPLargeFrame(t *testing.T) {
	n := TCP()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan *proto.Frame, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		frame, err := c.RecvFrame()
		if err == nil {
			got <- frame
		}
	}()
	cli, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	big := make([]byte, 4<<20) // 4 MiB
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := cli.Send(big); err != nil {
		t.Fatal(err)
	}
	select {
	case frame := <-got:
		if !bytes.Equal(frame.Bytes(), big) {
			t.Fatal("4 MiB frame corrupted in transit")
		}
		frame.Release()
	case <-time.After(10 * time.Second):
		t.Fatal("large frame never arrived")
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	n := TCP()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan int, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- -1
			return
		}
		count := 0
		for {
			f, err := c.RecvFrame()
			if err != nil {
				break
			}
			f.Release()
			count++
		}
		done <- count
	}()
	cli, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := cli.Send([]byte("concurrent frame")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cli.Close()
	if got := <-done; got != 400 {
		t.Fatalf("received %d frames, want 400 (interleaving corrupted framing?)", got)
	}
}
