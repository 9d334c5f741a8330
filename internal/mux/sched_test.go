package mux

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalla/internal/proto"
	"scalla/internal/race"
	"scalla/internal/transport"
)

// stepSched builds a scheduler with no worker goroutines so tests can
// step dequeues deterministically.
func stepSched(cfg SchedConfig) *Scheduler { return newScheduler(cfg) }

// stepNext pops one job by hand, simulating a worker cycle without
// running the handler.
func stepNext(s *Scheduler) (job, bool) {
	s.mu.Lock()
	j, ok := s.nextLocked()
	s.mu.Unlock()
	return j, ok
}

// stepFinish mirrors the worker's post-handler accounting.
func stepFinish(s *Scheduler, j job) {
	s.replied(j)
	s.finish(j)
}

// TestSchedControlLanePreemptsData pins strict priority: once a control
// frame is enqueued, no later dequeue may return a data frame before
// it, no matter how deep the data backlog is.
func TestSchedControlLanePreemptsData(t *testing.T) {
	s := stepSched(SchedConfig{Workers: 4, QueueLimit: 1000})
	c := s.register(nil, nil, ServeOptions{})
	for i := 0; i < 100; i++ {
		if shedded, _ := s.enqueue(c, proto.Read{FH: 1, N: 64 << 10}, uint32(i), nil); shedded {
			t.Fatalf("data enqueue %d shed below QueueLimit", i)
		}
	}
	if shedded, _ := s.enqueue(c, proto.Ping{}, 999, nil); shedded {
		t.Fatal("control frame shed")
	}
	j, ok := stepNext(s)
	if !ok {
		t.Fatal("nothing runnable")
	}
	if j.lane != LaneControl {
		t.Fatalf("first dequeue after control enqueue is %T on lane %d, want control", j.m, j.lane)
	}
	if _, isPing := j.m.(proto.Ping); !isPing {
		t.Fatalf("control dequeue returned %T", j.m)
	}
}

// TestSchedShedsBeyondQueueLimit pins the bounded queue: data arrivals
// beyond QueueLimit shed with a hint inside the jitter bounds, control
// arrivals never shed, and draining reopens admission.
func TestSchedShedsBeyondQueueLimit(t *testing.T) {
	s := stepSched(SchedConfig{QueueLimit: 4, RetryAfterMillis: 100})
	c := s.register(nil, nil, ServeOptions{})
	for i := 0; i < 4; i++ {
		if shedded, _ := s.enqueue(c, proto.Locate{Path: "/f"}, uint32(i), nil); shedded {
			t.Fatalf("enqueue %d shed below limit", i)
		}
	}
	shedded, millis := s.enqueue(c, proto.Locate{Path: "/f"}, 4, nil)
	if !shedded {
		t.Fatal("5th data enqueue not shed at QueueLimit=4")
	}
	if millis < 50 || millis > 150 {
		t.Fatalf("shed hint %d ms outside [base/2, 3·base/2] for base 100", millis)
	}
	if shedded, _ := s.enqueue(c, proto.Ping{}, 5, nil); shedded {
		t.Fatal("control frame shed while data lane full")
	}
	// The guarantee slot: a client with nothing queued is admitted even
	// at the limit, so the full queue starves its filler, not a sparse
	// newcomer.
	sparse := s.register(nil, nil, ServeOptions{})
	if shedded, _ := s.enqueue(sparse, proto.Locate{Path: "/g"}, 6, nil); shedded {
		t.Fatal("sparse client's first request shed at full queue; guarantee slot broken")
	}
	if shedded, _ := s.enqueue(sparse, proto.Locate{Path: "/g"}, 7, nil); !shedded {
		t.Fatal("sparse client's second request admitted past the limit")
	}
	if j, ok := stepNext(s); !ok || j.lane != LaneControl {
		t.Fatalf("expected queued control frame first, got %#v ok=%v", j, ok)
	}
	if _, ok := stepNext(s); !ok {
		t.Fatal("expected queued data frame")
	}
	if st := s.Stats(); st.Shed != 2 || st.MaxQueuedData != 5 {
		t.Fatalf("stats shed=%d maxq=%d, want 2 and 5", st.Shed, st.MaxQueuedData)
	}
}

// TestSchedDRRSharesByCost pins byte-share fairness: with one client
// queueing big reads and one queueing small ops, dequeue order
// interleaves so the cheap client is not starved behind the expensive
// one.
func TestSchedDRRSharesByCost(t *testing.T) {
	s := stepSched(SchedConfig{QueueLimit: 1000, Quantum: 8})
	big := s.register(nil, nil, ServeOptions{})
	small := s.register(nil, nil, ServeOptions{})
	for i := 0; i < 16; i++ {
		s.enqueue(big, proto.Read{FH: 1, N: 128 << 10}, uint32(i), nil) // cost 9
	}
	for i := 0; i < 16; i++ {
		s.enqueue(small, proto.Locate{Path: "/f"}, uint32(i), nil) // cost 1
	}
	// Drain the first 12 jobs; the small client must appear well before
	// the big backlog is done.
	smallSeen := 0
	for i := 0; i < 12; i++ {
		j, ok := stepNext(s)
		if !ok {
			t.Fatalf("queue dried up at %d", i)
		}
		if j.c == small {
			smallSeen++
		}
	}
	if smallSeen < 6 {
		t.Fatalf("small client got %d of first 12 dequeues; starved behind big reads", smallSeen)
	}
}

// TestSchedUnregisterDropsQueuedAndDrains pins the Serve contract under
// the scheduler: unregister discards a dead connection's queued jobs
// and blocks until its running handlers return.
func TestSchedUnregisterDropsQueuedAndDrains(t *testing.T) {
	s := stepSched(SchedConfig{QueueLimit: 100})
	c := s.register(nil, nil, ServeOptions{})
	for i := 0; i < 5; i++ {
		s.enqueue(c, proto.Locate{Path: "/f"}, uint32(i), nil)
	}
	j, ok := stepNext(s) // one job "running"
	if !ok {
		t.Fatal("no job")
	}
	done := make(chan struct{})
	go func() {
		s.unregister(c)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("unregister returned with a handler still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	stepFinish(s, j)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("unregister never returned after handlers drained")
	}
	if st := s.Stats(); st.QueuedData != 0 || st.InFlight != 0 || st.Clients != 0 {
		t.Fatalf("post-unregister stats: %+v", st)
	}
	if _, ok := stepNext(s); ok {
		t.Fatal("dequeued a job from an unregistered client")
	}
}

// TestSchedServeRepliesRetryAfter runs the full scheduled Serve path
// over a real connection: a stalled worker pool and a tiny queue must
// produce RetryAfter replies on the wire while admitted requests still
// answer after the stall clears.
func TestSchedServeRepliesRetryAfter(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	lis, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1, QueueLimit: 1, RetryAfterMillis: 40})
	defer sched.Close()
	release := make(chan struct{})
	var served atomic.Int64
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		Serve(conn, func(m proto.Message, r Responder) proto.Message {
			<-release
			served.Add(1)
			return proto.StatOK{Exists: true}
		}, ServeOptions{Sched: sched})
	}()

	mc, err := Dial(net, "srv", Options{MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	var wg sync.WaitGroup
	results := make([]proto.Message, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := mc.Call(proto.Stat{Path: "/f"}, 5*time.Second)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			results[i] = reply
		}(i)
	}
	// Let the calls pile up: 1 running + 1 queued, the rest shed.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	var sheds, oks int
	for i, reply := range results {
		switch m := reply.(type) {
		case proto.RetryAfter:
			sheds++
			if m.Millis < 20 || m.Millis > 60 {
				t.Errorf("call %d: shed hint %d ms outside jitter bounds for base 40", i, m.Millis)
			}
		case proto.StatOK:
			oks++
		default:
			t.Errorf("call %d: unexpected reply %#v", i, reply)
		}
	}
	if sheds == 0 {
		t.Fatalf("no RetryAfter replies across 8 calls (oks=%d); queue never shed", oks)
	}
	if oks < 1 {
		t.Fatalf("no call served; admitted requests lost (sheds=%d)", sheds)
	}
	if oks+sheds != 8 {
		t.Fatalf("oks=%d sheds=%d, want them to cover all 8 calls", oks, sheds)
	}
	if got := served.Load(); int(got) != oks {
		t.Fatalf("handler ran %d times but %d OK replies arrived", got, oks)
	}
}

// TestSchedDispatchAllocsNothing is the CI gate for the uncontended
// dispatch path: once the job rings are warm, enqueue → dequeue →
// finish must allocate nothing. The decoded message is boxed once at
// frame decode (outside this path) and rides the ring by value.
func TestSchedDispatchAllocsNothing(t *testing.T) {
	s := stepSched(SchedConfig{QueueLimit: 1024})
	c := s.register(nil, nil, ServeOptions{})
	var m proto.Message = proto.Read{FH: 7, Off: 0, N: 64 << 10}
	// Warm the rings and histograms.
	for i := 0; i < 32; i++ {
		s.enqueue(c, m, 7, nil)
	}
	for {
		j, ok := stepNext(s)
		if !ok {
			break
		}
		stepFinish(s, j)
	}
	avg := testing.AllocsPerRun(100, func() {
		if shedded, _ := s.enqueue(c, m, 7, nil); shedded {
			t.Fatal("uncontended enqueue shed")
		}
		j, ok := stepNext(s)
		if !ok {
			t.Fatal("no job after enqueue")
		}
		stepFinish(s, j)
	})
	if race.Enabled {
		t.Skip("0-alloc assertion skipped under -race: sync.Pool drops Puts at random")
	}
	if avg != 0 {
		t.Fatalf("scheduled dispatch allocates %.1f objects per op, want 0", avg)
	}
}

// BenchmarkSchedDispatch measures the scheduler's enqueue→dequeue→
// finish cycle; ReportAllocs documents the 0 allocs/op claim in CI.
func BenchmarkSchedDispatch(b *testing.B) {
	s := stepSched(SchedConfig{QueueLimit: 1024})
	c := s.register(nil, nil, ServeOptions{})
	var m proto.Message = proto.Read{FH: 7, Off: 0, N: 64 << 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.enqueue(c, m, 7, nil)
		j, _ := stepNext(s)
		stepFinish(s, j)
	}
}
