package transport

import (
	"bytes"
	"io"
	"testing"
)

func TestSchedConnSendGoesToHookNotPeer(t *testing.T) {
	var captured [][]byte
	var from *SchedConn
	a, b := NewSchedPair("mgr", "srv", func(c *SchedConn, frame []byte) error {
		from = c
		captured = append(captured, frame)
		return nil
	})
	if err := a.Send([]byte("q1")); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 1 || string(captured[0]) != "q1" || from != a {
		t.Fatalf("hook saw %q from %v", captured, from)
	}
	// Nothing was delivered: the peer inbox must be empty.
	select {
	case f := <-b.inbox:
		t.Fatalf("frame %q delivered without Push", f)
	default:
	}
	// The scheduler delivers explicitly.
	if !b.Push(captured[0]) {
		t.Fatal("Push refused")
	}
	got, err := b.RecvFrame()
	if err != nil || !bytes.Equal(got.Bytes(), []byte("q1")) {
		t.Fatalf("RecvFrame = %v, %v", got, err)
	}
	got.Release()
}

func TestSchedConnSendCopiesFrame(t *testing.T) {
	var captured []byte
	a, _ := NewSchedPair("a", "b", func(_ *SchedConn, frame []byte) error {
		captured = frame
		return nil
	})
	buf := []byte("hello")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // caller recycles its buffer after Send returns
	if string(captured) != "hello" {
		t.Fatalf("hook frame aliased the caller's buffer: %q", captured)
	}
}

func TestSchedConnRecvHookRunsBeforeBlocking(t *testing.T) {
	a, b := NewSchedPair("a", "b", nil)
	idle := make(chan struct{}, 8)
	b.SetRecvHook(func() { idle <- struct{}{} })
	go func() {
		for {
			f, err := b.RecvFrame()
			if err != nil {
				return
			}
			f.Release()
		}
	}()
	<-idle // hook fired: the receiver is parked at RecvFrame
	if err := a.Send([]byte("f")); err != nil {
		t.Fatal(err) // nil hook delivers directly
	}
	<-idle // frame consumed; receiver parked again
	b.Close()
}

func TestSchedConnCloseUnblocksAndDrains(t *testing.T) {
	_, b := NewSchedPair("a", "b", nil)
	if !b.Push([]byte("last")) {
		t.Fatal("Push refused")
	}
	b.Close()
	// The queued frame is drained first, then EOF.
	got, err := b.RecvFrame()
	if err != nil || string(got.Bytes()) != "last" {
		t.Fatalf("RecvFrame = %v, %v", got, err)
	}
	got.Release()
	if _, err := b.RecvFrame(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if b.Push([]byte("late")) {
		t.Fatal("Push accepted on closed endpoint")
	}
}

func TestSchedConnNames(t *testing.T) {
	a, b := NewSchedPair("mgr", "srv", nil)
	if a.Name() != "mgr" || a.RemoteAddr() != "srv" || a.Peer() != b {
		t.Fatalf("a: name=%q remote=%q", a.Name(), a.RemoteAddr())
	}
	if b.Name() != "srv" || b.RemoteAddr() != "mgr" || b.Peer() != a {
		t.Fatalf("b: name=%q remote=%q", b.Name(), b.RemoteAddr())
	}
}
