package transport

// Tests for the coalescing wire path: the group-commit vectored writer,
// the buffered pooled receiver, and the batching counters.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"scalla/internal/race"
)

// shortWriteConn wraps a net.Conn and chops every Write into pieces of
// at most chunk bytes, exercising the non-writev per-buffer loop's
// short-write tolerance. After failAfter total bytes (when > 0) every
// Write fails, exercising mid-batch error propagation.
type shortWriteConn struct {
	net.Conn
	chunk     int
	mu        sync.Mutex
	written   int
	failAfter int
	failErr   error
}

func (s *shortWriteConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	if s.failAfter > 0 && s.written >= s.failAfter {
		s.mu.Unlock()
		return 0, s.failErr
	}
	s.mu.Unlock()
	n := len(p)
	if n > s.chunk {
		n = s.chunk
	}
	n, err := s.Conn.Write(p[:n])
	s.mu.Lock()
	s.written += n
	s.mu.Unlock()
	return n, err
}

// tcpPair returns both ends of one accepted loopback connection.
func tcpPair(t *testing.T) (cli, srv net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accCh := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accCh <- c
	}()
	cli, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv = <-accCh
	return cli, srv
}

// TestTCPSendToleratesShortWrites tortures the fallback write loop with
// a writer that never accepts more than 3 bytes at a time: every frame
// and every length prefix is fragmented across many partial writes, and
// the receiver must still see intact, ordered frames.
func TestTCPSendToleratesShortWrites(t *testing.T) {
	rawCli, rawSrv := tcpPair(t)
	var stats WireStats
	// Wrapping in shortWriteConn hides *net.TCPConn, so newTCPConn takes
	// the per-buffer loop path rather than net.Buffers.WriteTo.
	cli := newTCPConn(&shortWriteConn{Conn: rawCli, chunk: 3}, &stats)
	srv := newTCPConn(rawSrv, &stats)
	defer cli.Close()
	defer srv.Close()
	if cli.writev {
		t.Fatal("shimmed conn must not take the writev fast path")
	}

	var frames [][]byte
	for i := 0; i < 50; i++ {
		f := make([]byte, 1+i*7)
		for j := range f {
			f[j] = byte(i + j)
		}
		frames = append(frames, f)
	}
	errCh := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := cli.Send(f); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i, want := range frames {
		got, err := srv.RecvFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("frame %d corrupted: got %d bytes, want %d", i, len(got.Bytes()), len(want))
		}
		got.Release()
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestTCPSendWriteErrorFailsPendingSenders checks the leader's error
// duty: when a batch write breaks the stream, senders queued behind it
// must fail rather than deadlock waiting for a flush that will never
// come, and later Sends must see the sticky error.
func TestTCPSendWriteErrorFailsPendingSenders(t *testing.T) {
	rawCli, rawSrv := tcpPair(t)
	defer rawSrv.Close()
	wantErr := errors.New("wire torn")
	var stats WireStats
	cli := newTCPConn(&shortWriteConn{Conn: rawCli, chunk: 64, failAfter: 200, failErr: wantErr}, &stats)
	defer cli.Close()

	// Drain the server side so writes never block on a full buffer.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := rawSrv.Read(buf); err != nil {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := cli.Send(make([]byte, 100)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("senders deadlocked after write error")
	}
	sawErr := false
	close(errs)
	for err := range errs {
		if errors.Is(err, wantErr) {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("no sender observed the write error")
	}
	if err := cli.Send([]byte("x")); !errors.Is(err, wantErr) {
		t.Fatalf("post-failure Send: got %v, want the sticky write error", err)
	}
}

// TestTCPOversizedHeaderClosesConn checks the desync fix: a frame
// length beyond MaxFrame is protocol-fatal, so the receiver must close
// the connection rather than resynchronize mid-garbage on the next
// read.
func TestTCPOversizedHeaderClosesConn(t *testing.T) {
	rawCli, rawSrv := tcpPair(t)
	defer rawCli.Close()
	var stats WireStats
	srv := newTCPConn(rawSrv, &stats)
	defer srv.Close()

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrame+1))
	if _, err := rawCli.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RecvFrame(); err == nil {
		t.Fatal("oversized header accepted")
	}
	// The connection must be dead: the peer's next read sees EOF/reset
	// instead of a half-open socket feeding garbage.
	rawCli.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := rawCli.Read(buf); err == nil {
		t.Fatal("peer still readable after oversized header; conn not closed")
	}
}

// TestTCPConcurrentSendersOrdered floods one connection from 64
// goroutines and checks, under -race, that coalescing preserves both
// frame integrity (no interleaved bytes) and per-sender order. Each
// frame carries (sender, seq, checksummed payload).
func TestTCPConcurrentSendersOrdered(t *testing.T) {
	const senders = 64
	const perSender = 200
	n := TCP()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type result struct {
		count int
		err   error
	}
	done := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- result{0, err}
			return
		}
		defer c.Close()
		var lastSeq [senders]int
		for i := range lastSeq {
			lastSeq[i] = -1
		}
		count := 0
		for {
			f, err := RecvFrame(c)
			if err != nil {
				done <- result{count, nil}
				return
			}
			b := f.Bytes()
			if len(b) < 8 {
				done <- result{count, fmt.Errorf("runt frame: %d bytes", len(b))}
				return
			}
			g := int(binary.BigEndian.Uint32(b[0:4]))
			seq := int(binary.BigEndian.Uint32(b[4:8]))
			if g < 0 || g >= senders {
				done <- result{count, fmt.Errorf("corrupt sender id %d", g)}
				return
			}
			if seq != lastSeq[g]+1 {
				done <- result{count, fmt.Errorf("sender %d: seq %d after %d", g, seq, lastSeq[g])}
				return
			}
			lastSeq[g] = seq
			for j, v := range b[8:] {
				if v != byte(g^j) {
					done <- result{count, fmt.Errorf("sender %d seq %d: payload corrupt at %d", g, seq, j)}
					return
				}
			}
			f.Release()
			count++
		}
	}()
	cli, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			frame := make([]byte, 8+32+g%32)
			for j := range frame[8:] {
				frame[8+j] = byte(g ^ j)
			}
			binary.BigEndian.PutUint32(frame[0:4], uint32(g))
			for i := 0; i < perSender; i++ {
				binary.BigEndian.PutUint32(frame[4:8], uint32(i))
				if err := cli.Send(frame); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cli.Close()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.count != senders*perSender {
		t.Fatalf("received %d frames, want %d", r.count, senders*perSender)
	}
	// With 64 goroutines overlapping on one socket, group commit must
	// have coalesced sends into multi-frame batches.
	if w := n.Wire(); w.MeanBatch() < 2 {
		t.Errorf("mean %.2f frames/writev across %d overlapped sends, want >= 2: %+v",
			w.MeanBatch(), senders*perSender, w)
	}
}

// TestWireStatsBatchBuckets pins the histogram bucket boundaries.
func TestWireStatsBatchBuckets(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 32: 5, 33: 6, 64: 6, 65: 7, 1000: 7}
	for frames, want := range cases {
		if got := batchBucket(frames); got != want {
			t.Errorf("batchBucket(%d) = %d, want %d", frames, got, want)
		}
	}
}

// TestTCPWireCounters checks that a lock-step exchange is counted as
// idle flushes of single-frame batches and that receive-side counters
// advance.
func TestTCPWireCounters(t *testing.T) {
	n := TCP()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			f, err := RecvFrame(c)
			if err != nil {
				return
			}
			err = c.Send(f.Bytes())
			f.Release()
			if err != nil {
				return
			}
		}
	}()
	cli, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := cli.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		f, err := RecvFrame(cli)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	// Both directions share the stats block: 20 request + 20 echo sends.
	// A sender records its flush after the writev returns, so the last
	// echo can reach us before the echo side has counted it: wait for
	// the count instead of racing it.
	w := n.Wire()
	settled := func() bool {
		return w.FramesOut >= 2*rounds && w.Writevs == w.IdleFlushes+w.BacklogFlushes
	}
	for deadline := time.Now().Add(5 * time.Second); !settled() && time.Now().Before(deadline); w = n.Wire() {
		time.Sleep(time.Millisecond)
	}
	if w.FramesOut != 2*rounds {
		t.Errorf("FramesOut = %d, want %d", w.FramesOut, 2*rounds)
	}
	if w.FramesIn != 2*rounds {
		t.Errorf("FramesIn = %d, want %d", w.FramesIn, 2*rounds)
	}
	if w.IdleFlushes == 0 {
		t.Error("lock-step exchange recorded no idle flushes")
	}
	if w.Writevs != w.IdleFlushes+w.BacklogFlushes {
		t.Errorf("Writevs %d != idle %d + backlog %d", w.Writevs, w.IdleFlushes, w.BacklogFlushes)
	}
	if m := w.MeanBatch(); m < 1 {
		t.Errorf("MeanBatch = %v, want >= 1", m)
	}
	if w.ReadCalls == 0 || w.BytesIn == 0 || w.BytesOut == 0 {
		t.Errorf("receive counters did not advance: %+v", w)
	}
}

// floodRig builds a tcpConn receiver fed by a raw sender goroutine that
// keeps the socket full of identical framed payloads, isolating the
// receive path for alloc and throughput measurement.
func floodRig(tb testing.TB, payload int) (rx *tcpConn, stop func()) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	accCh := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accCh <- c
	}()
	cli, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	srv := <-accCh
	// One pre-framed buffer holding many frames, written over and over.
	one := make([]byte, 4+payload)
	binary.BigEndian.PutUint32(one, uint32(payload))
	for i := 0; i < payload; i++ {
		one[4+i] = byte(i)
	}
	burst := bytes.Repeat(one, 64)
	go func() {
		for {
			if _, err := cli.Write(burst); err != nil {
				return
			}
		}
	}()
	var stats WireStats
	rx = newTCPConn(srv, &stats)
	return rx, func() { rx.Close(); cli.Close(); l.Close() }
}

// TestTCPRecvFrameAllocsNothing is the CI gate for the pooled receive
// path: decoding frames off a saturated socket through RecvFrame must
// not allocate once the frame pool and receive buffer are warm.
func TestTCPRecvFrameAllocsNothing(t *testing.T) {
	rx, stop := floodRig(t, 512)
	defer stop()
	for i := 0; i < 200; i++ {
		f, err := rx.RecvFrame()
		if err != nil {
			t.Fatal(err)
		}
		f.Release() // warm the frame pool and the bufio window
	}
	allocs := testing.AllocsPerRun(500, func() {
		f, err := rx.RecvFrame()
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	})
	if race.Enabled {
		t.Skip("0-alloc assertion skipped under -race: sync.Pool drops Puts at random")
	}
	if allocs > 0 {
		t.Fatalf("pooled TCP receive allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkTCPRecvFrame(b *testing.B) {
	rx, stop := floodRig(b, 512)
	defer stop()
	for i := 0; i < 200; i++ {
		f, err := rx.RecvFrame()
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := rx.RecvFrame()
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}
