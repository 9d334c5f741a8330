package client

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"

	"scalla/internal/transport"
)

// inlineRig is a one-server cluster whose client counts the frames it
// sends, over the in-process network or real TCP sockets.
type inlineRig struct {
	*rig
	frames *transport.CountingNetwork
	cl     *Client
}

func newInlineRig(t *testing.T, tcp bool) inlineRig {
	t.Helper()
	var r *rig
	if tcp {
		var mu sync.Mutex
		addrs := map[string]string{}
		r = buildClusterOn(t, transport.TCP(), func(name string) string {
			mu.Lock()
			defer mu.Unlock()
			if a, ok := addrs[name]; ok {
				return a
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[name] = l.Addr().String()
			l.Close()
			return addrs[name]
		}, 1)
	} else {
		r = buildCluster(t, 1)
	}
	frames := transport.Counting(r.net)
	cl := New(Config{Net: frames, Managers: []string{r.mgr.DataAddr()}})
	t.Cleanup(cl.Close)
	return inlineRig{rig: r, frames: frames, cl: cl}
}

// put stores data at the server and warms its location at the manager,
// then zeroes the frame count.
func (r inlineRig) put(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := r.stores[0].Put(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cl.Locate(path, false); err != nil {
		t.Fatal(err)
	}
	r.frames.Reset()
}

// sent returns the frames the client sent since the last put.
func (r inlineRig) sent() int64 { return r.frames.Stats().FramesSent }

func (r inlineRig) handles() int { return r.srvs[0].DataServer().Handles() }

func forEachNet(t *testing.T, test func(t *testing.T, r inlineRig)) {
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"inproc", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) { test(t, newInlineRig(t, tc.tcp)) })
	}
}

// TestInlineSnapshotReads checks ReadAt, Read and Seek inside the
// snapshot: the right bytes, io.EOF with the last bytes exactly as a
// server read reports it, and no frame sent.
func TestInlineSnapshotReads(t *testing.T) {
	forEachNet(t, func(t *testing.T, r inlineRig) {
		want := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
		r.put(t, "/s", want)
		f, err := r.cl.Open("/s")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 10)
		for _, c := range []struct {
			off  int64
			want string
			eof  bool
		}{
			{0, "abcdefghij", false},
			{20, "uvwxyz0123", false},
			{26, "0123456789", true}, // ends exactly at the end
			{30, "456789", true},     // runs past it
		} {
			n, err := f.ReadAt(buf, c.off)
			if string(buf[:n]) != c.want || (err == io.EOF) != c.eof || (err != nil && err != io.EOF) {
				t.Fatalf("ReadAt(%d) = %q, %v; want %q, eof %v", c.off, buf[:n], err, c.want, c.eof)
			}
		}
		var got []byte
		for {
			n, err := f.Read(buf[:7])
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("sequential Read = %q", got)
		}
		if pos, err := f.Seek(-4, io.SeekEnd); err != nil || pos != int64(len(want))-4 {
			t.Fatalf("Seek = %d, %v", pos, err)
		}
		if n, err := f.Read(buf); string(buf[:n]) != "6789" || err != io.EOF {
			t.Fatalf("Read after Seek = %q, %v", buf[:n], err)
		}
		if got := r.sent(); got != 2 {
			t.Fatalf("snapshot reads sent %d frames, want the open's 2", got)
		}
	})
}

// TestInlineReadPastSnapshotSeesAppend checks the lazy reopen: a read
// that starts at the snapshot's end opens a handle and sees bytes
// appended after the open; Close then releases that handle.
func TestInlineReadPastSnapshotSeesAppend(t *testing.T) {
	forEachNet(t, func(t *testing.T, r inlineRig) {
		r.put(t, "/grow", []byte("head"))
		f, err := r.cl.Open("/grow")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.stores[0].WriteAt("/grow", 4, []byte("+tail")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		if n, err := f.ReadAt(buf, 0); string(buf[:n]) != "head" || err != io.EOF {
			t.Fatalf("snapshot read = %q, %v", buf[:n], err)
		}
		if r.handles() != 0 {
			t.Fatal("a snapshot read opened a handle")
		}
		if n, err := f.ReadAt(buf, 4); string(buf[:n]) != "+tail" || err != io.EOF {
			t.Fatalf("read past snapshot = %q, %v", buf[:n], err)
		}
		if r.handles() != 1 {
			t.Fatalf("read past snapshot left %d handles, want 1", r.handles())
		}
		if n, err := f.ReadAt(buf, 0); string(buf[:n]) != "head+tail" || err != io.EOF {
			t.Fatalf("read through the handle = %q, %v", buf[:n], err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if r.handles() != 0 {
			t.Fatalf("%d handles after close", r.handles())
		}
	})
}

// TestInlineOpenFrames pins what an open, a whole-file read and a
// Close cost up to the size cut-off: 2 client frames (the manager's
// redirect and the server's open), no Close sent and no server handle
// ever held. One byte past inlineMax gets a handle and the usual Read
// and Close.
func TestInlineOpenFrames(t *testing.T) {
	forEachNet(t, func(t *testing.T, r inlineRig) {
		for _, c := range []struct {
			size    int
			handles int
			frames  int64
		}{
			{4 << 10, 0, 2},
			{inlineMax, 0, 2},
			{inlineMax + 1, 1, 4}, // redirect, open, read, close
		} {
			want := bytes.Repeat([]byte{0xA5, 0x5A, 0x33}, c.size/3+1)[:c.size]
			r.put(t, "/limit", want)
			f, err := r.cl.Open("/limit")
			if err != nil {
				t.Fatal(err)
			}
			if r.handles() != c.handles {
				t.Fatalf("size %d: %d handles, want %d", c.size, r.handles(), c.handles)
			}
			got := make([]byte, c.size+1)
			if n, err := f.ReadAt(got, 0); n != c.size || err != io.EOF || !bytes.Equal(got[:n], want) {
				t.Fatalf("size %d: read %d bytes, %v", c.size, n, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got := r.sent(); got != c.frames {
				t.Fatalf("size %d: sent %d frames, want %d", c.size, got, c.frames)
			}
			if r.handles() != 0 {
				t.Fatalf("size %d: %d handles after close", c.size, r.handles())
			}
			if err := r.stores[0].Unlink("/limit"); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestInlineSurvivesHolderLoss: an inline file holds no server state,
// so losing the file at its holder after the open cannot fail a read
// inside the snapshot.
func TestInlineSurvivesHolderLoss(t *testing.T) {
	r := newInlineRig(t, false)
	r.put(t, "/gone", []byte("kept"))
	f, err := r.cl.Open("/gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.stores[0].Unlink("/gone"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := f.ReadAt(buf, 0); string(buf[:n]) != "kept" || err != io.EOF {
		t.Fatalf("read after holder loss = %q, %v", buf[:n], err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
