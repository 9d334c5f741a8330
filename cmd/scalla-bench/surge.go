package main

// The -surge mode: the overload-protection acceptance bench (ROADMAP
// item 4, DESIGN.md §11). A data server behind real TCP sockets is
// flooded by thousands of greedy bulk readers while two probes measure
// what the scheduler promises to protect:
//
//   - a control pinger (Ping rides the strict-priority control lane):
//     its p99 must stay near idle under full surge;
//   - a single lock-step victim reader: DRR activation-at-head plus the
//     per-client guarantee slot must keep its goodput roughly flat
//     while the bulk cohort sheds.
//
// Bulk latency is allowed to degrade — gracefully, through RetryAfter
// backoff rather than unbounded queueing. The server is the production
// Scheduler serving each connection with a handler that sleeps 1 ms per
// read to model media access: worker occupancy is the contended resource, so
// the bench measures the scheduler's queueing decisions rather than
// the bench host's cores (client and server share one process). The
// rows land in BENCH_<date>.json next to the other suites; `-surge`
// runs the bench standalone with the queue-depth assertions CI relies
// on.

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"scalla/internal/metrics"
	"scalla/internal/mux"
	"scalla/internal/proto"
	"scalla/internal/transport"
)

// surgeScale sizes one surge run.
type surgeScale struct {
	clients int           // greedy TCP clients, two pipelined streams each
	queue   int           // scheduler QueueLimit
	retry   int           // RetryAfterMillis (paces the shed-retry storm)
	idle    time.Duration // unloaded measurement window
	surge   time.Duration // loaded measurement window
	warm    time.Duration // backlog-forming delay before measuring
}

func surgeScaleFor(quick bool) surgeScale {
	if quick {
		return surgeScale{clients: 256, queue: 128, retry: 50,
			idle: 300 * time.Millisecond, surge: 700 * time.Millisecond,
			warm: 200 * time.Millisecond}
	}
	return surgeScale{clients: 10_000, queue: 2048, retry: 250,
		idle: time.Second, surge: 3 * time.Second, warm: 1500 * time.Millisecond}
}

// surgeService is the simulated per-read media-access time.
const surgeService = time.Millisecond

// surgeReadSize is the bulk request size (drives DRR cost accounting);
// replies carry surgePayload bytes so a single-core bench host is not
// throughput-bound on memcpy.
const (
	surgeReadSize = 64 << 10
	surgePayload  = 8 << 10
)

// raiseFDLimit lifts RLIMIT_NOFILE toward need (each surge client costs
// two descriptors: one per side of its socket) and returns the limit
// actually in force.
func raiseFDLimit(need uint64) uint64 {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 1024
	}
	if rl.Cur >= need {
		return rl.Cur
	}
	want := syscall.Rlimit{Cur: need, Max: rl.Max}
	if want.Max < need {
		want.Max = need // needs privilege; harmless to try
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &want); err != nil {
		return rl.Cur
	}
	return need
}

// surgeRow summarizes one histogram over a measurement window.
func surgeRow(op string, h *metrics.Histogram, window time.Duration, bytesPerOp int) BenchResult {
	s := h.Snapshot()
	r := BenchResult{
		Op: op, N: s.Count,
		P50US:     float64(s.P50.Nanoseconds()) / 1e3,
		P90US:     float64(s.P90.Nanoseconds()) / 1e3,
		P99US:     float64(s.P99.Nanoseconds()) / 1e3,
		OpsPerSec: float64(s.Count) / window.Seconds(),
	}
	if bytesPerOp > 0 {
		r.MBPerSec = r.OpsPerSec * float64(bytesPerOp) / 1e6
	}
	return r
}

// surgeWaitRow summarizes a scheduler lane-wait snapshot as a row
// (latency percentiles only; no meaningful window for a rate).
func surgeWaitRow(op string, s metrics.Snapshot) BenchResult {
	return BenchResult{
		Op: op, N: s.Count,
		P50US: float64(s.P50.Nanoseconds()) / 1e3,
		P90US: float64(s.P90.Nanoseconds()) / 1e3,
		P99US: float64(s.P99.Nanoseconds()) / 1e3,
	}
}

// surgeServer is the flood target: the production Scheduler in front of
// a handler with a fixed media-access time per read.
type surgeServer struct {
	sched   *mux.Scheduler
	lis     transport.Listener
	payload []byte
	wg      sync.WaitGroup
}

func startSurgeServer(net transport.Network, sc surgeScale) (*surgeServer, error) {
	s := &surgeServer{
		sched: mux.NewScheduler(mux.SchedConfig{
			QueueLimit:       sc.queue,
			RetryAfterMillis: sc.retry,
			Seed:             1,
		}),
		payload: make([]byte, surgePayload),
	}
	rand.New(rand.NewSource(1)).Read(s.payload)
	lis, err := net.Listen("127.0.0.1:0")
	if err != nil {
		s.sched.Close()
		return nil, err
	}
	s.lis = lis
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				s.sched.Serve(conn, s.handle, mux.ServeOptions{})
			}()
		}
	}()
	return s, nil
}

func (s *surgeServer) handle(m proto.Message, r mux.Responder) proto.Message {
	switch q := m.(type) {
	case proto.Open:
		return proto.OpenOK{FH: 1, Size: 1 << 20}
	case proto.Read:
		time.Sleep(surgeService) // simulated media access
		return proto.Data{FH: q.FH, Bytes: s.payload}
	case proto.Ping:
		return proto.Pong{}
	default:
		return proto.Err{Code: proto.EInval, Msg: "surge: unexpected"}
	}
}

func (s *surgeServer) close() {
	s.lis.Close()
	s.sched.Close()
	s.wg.Wait()
}

// surgeOpen opens the hot file over conn, retrying through sheds.
func surgeOpen(conn *mux.Conn) (uint64, error) {
	for {
		reply, err := conn.Call(proto.Open{Path: "/surge/hot.root"}, 30*time.Second)
		if err != nil {
			return 0, err
		}
		switch m := reply.(type) {
		case proto.OpenOK:
			return m.FH, nil
		case proto.RetryAfter:
			time.Sleep(time.Duration(m.Millis) * time.Millisecond)
		default:
			return 0, fmt.Errorf("surge open: %#v", reply)
		}
	}
}

// surgePing drives the control-lane probe for one window: a Ping every
// couple of milliseconds, each RTT observed into h.
func surgePing(conn *mux.Conn, window time.Duration, h *metrics.Histogram) error {
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		reply, err := conn.Call(proto.Ping{}, 30*time.Second)
		if err != nil {
			return err
		}
		if _, ok := reply.(proto.Pong); !ok {
			return fmt.Errorf("surge ping: %#v", reply)
		}
		h.Observe(time.Since(t0))
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// surgeVictim runs the lock-step reader for one window: sequential
// reads, one in flight, each completion observed into h.
func surgeVictim(conn *mux.Conn, fh uint64, window time.Duration, h *metrics.Histogram) error {
	deadline := time.Now().Add(window)
	var off int64
	for time.Now().Before(deadline) {
		t0 := time.Now()
		reply, err := conn.Call(proto.Read{FH: fh, Off: off, N: surgeReadSize}, 30*time.Second)
		if err != nil {
			return err
		}
		switch m := reply.(type) {
		case proto.Data:
			h.Observe(time.Since(t0))
			off = (off + surgeReadSize) % (1 << 20)
		case proto.RetryAfter:
			// The guarantee slot should spare the sparse victim; honor
			// the verdict anyway so the loop keeps its one-in-flight
			// shape.
			time.Sleep(time.Duration(m.Millis) * time.Millisecond)
		default:
			return fmt.Errorf("surge victim read: %#v", reply)
		}
	}
	return nil
}

// runSurge executes the surge bench and returns its rows. With check
// set it also enforces the CI invariants: the data queue never exceeded
// its configured bound (QueueLimit plus one guarantee slot per client),
// the scheduler shed under surge rather than queueing without limit,
// and everything drained on shutdown.
func runSurge(quick, check bool) ([]BenchResult, error) {
	sc := surgeScaleFor(quick)
	need := uint64(2*sc.clients + 512)
	if got := raiseFDLimit(need); got < need {
		scaled := int((got - 512) / 2)
		fmt.Fprintf(os.Stderr, "scalla-bench: fd limit %d caps the surge at %d clients (wanted %d)\n",
			got, scaled, sc.clients)
		sc.clients = scaled
	}
	if sc.clients < 8 {
		return nil, fmt.Errorf("surge: fd limit leaves only %d clients; nothing to measure", sc.clients)
	}
	tag := fmt.Sprintf("%dc", sc.clients)

	net := transport.TCP()
	srv, err := startSurgeServer(net, sc)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	addr := srv.lis.Addr()

	dialProbe := func() (*mux.Conn, uint64, error) {
		conn, err := mux.Dial(net, addr, mux.Options{MaxInFlight: 1})
		if err != nil {
			return nil, 0, err
		}
		fh, err := surgeOpen(conn)
		if err != nil {
			conn.Close()
			return nil, 0, err
		}
		return conn, fh, nil
	}
	ctlConn, _, err := dialProbe()
	if err != nil {
		return nil, err
	}
	defer ctlConn.Close()
	victimConn, victimFH, err := dialProbe()
	if err != nil {
		return nil, err
	}
	defer victimConn.Close()

	// Phase 1: idle baselines.
	ctlIdle, victimIdle := &metrics.Histogram{}, &metrics.Histogram{}
	if err := surgePing(ctlConn, sc.idle, ctlIdle); err != nil {
		return nil, err
	}
	if err := surgeVictim(victimConn, victimFH, sc.idle, victimIdle); err != nil {
		return nil, err
	}

	// Phase 2: raise the surge. Each greedy client is one TCP connection
	// running two pipelined read streams that honor RetryAfter verdicts
	// with the hinted backoff — the cohort that keeps requests queued,
	// eats the sheds (the victim's guarantee slot exempts it), and must
	// degrade gracefully.
	var (
		stopFlood atomic.Bool
		measuring atomic.Bool
		dialSem   = make(chan struct{}, 256)
		bulk      = &metrics.Histogram{}
		floodWG   sync.WaitGroup
		dialErrs  atomic.Int64
		up        atomic.Int64
	)
	for i := 0; i < sc.clients; i++ {
		floodWG.Add(1)
		go func(i int) {
			defer floodWG.Done()
			dialSem <- struct{}{}
			conn, err := mux.Dial(net, addr, mux.Options{MaxInFlight: 4})
			if err != nil {
				<-dialSem
				dialErrs.Add(1)
				return
			}
			fh, err := surgeOpen(conn)
			<-dialSem
			if err != nil {
				conn.Close()
				dialErrs.Add(1)
				return
			}
			defer conn.Close()
			up.Add(1)
			var streams sync.WaitGroup
			for st := 0; st < 2; st++ {
				streams.Add(1)
				go func(st int) {
					defer streams.Done()
					rng := rand.New(rand.NewSource(int64(2*i + st)))
					for !stopFlood.Load() {
						off := int64(rng.Intn(1<<20-surgeReadSize)) &^ (surgeReadSize - 1)
						t0 := time.Now()
						reply, err := conn.Call(proto.Read{FH: fh, Off: off, N: surgeReadSize}, 30*time.Second)
						if err != nil {
							return
						}
						switch m := reply.(type) {
						case proto.Data:
							if measuring.Load() {
								bulk.Observe(time.Since(t0))
							}
						case proto.RetryAfter:
							time.Sleep(time.Duration(m.Millis) * time.Millisecond)
						default:
							return
						}
					}
				}(st)
			}
			streams.Wait()
		}(i)
	}
	time.Sleep(sc.warm)

	// Phase 3: measure under load. Control probe and victim run
	// concurrently against the flooded scheduler.
	preStats := srv.sched.Stats()
	measuring.Store(true)
	ctlLoaded, victimLoaded := &metrics.Histogram{}, &metrics.Histogram{}
	var pingErr error
	var pingWG sync.WaitGroup
	pingWG.Add(1)
	go func() {
		defer pingWG.Done()
		pingErr = surgePing(ctlConn, sc.surge, ctlLoaded)
	}()
	victimErr := surgeVictim(victimConn, victimFH, sc.surge, victimLoaded)
	pingWG.Wait()
	measuring.Store(false)
	postStats := srv.sched.Stats()
	stopFlood.Store(true)
	floodWG.Wait()
	if pingErr != nil {
		return nil, fmt.Errorf("surge control probe: %w", pingErr)
	}
	if victimErr != nil {
		return nil, fmt.Errorf("surge victim: %w", victimErr)
	}
	if failed := dialErrs.Load(); failed > int64(sc.clients/10) {
		return nil, fmt.Errorf("surge: %d of %d greedy dials failed (%d up)", failed, sc.clients, up.Load())
	}

	shedDelta := postStats.Shed - preStats.Shed
	rows := []BenchResult{
		surgeRow("surge.ctl.idle", ctlIdle, sc.idle, 0),
		surgeRow("surge.ctl."+tag, ctlLoaded, sc.surge, 0),
		surgeRow("surge.victim.idle", victimIdle, sc.idle, surgePayload),
		surgeRow("surge.victim."+tag, victimLoaded, sc.surge, surgePayload),
		surgeRow("surge.bulk."+tag, bulk, sc.surge, surgePayload),
	}
	rows = append(rows, BenchResult{
		Op: "surge.shed." + tag, N: shedDelta,
		OpsPerSec: float64(shedDelta) / sc.surge.Seconds(),
	})
	// Server-side enqueue→dispatch waits per lane, over the whole run.
	// The client-observed rows above include the bench process's own
	// goroutine-scheduling delays (tens of thousands of runnable
	// goroutines share the host with the server); these two are the
	// scheduler's own accounting and isolate what it controls: how long
	// a frame sat in its lane. Control staying flat while data grows by
	// orders of magnitude is the priority-lane claim.
	rows = append(rows,
		surgeWaitRow("surge.ctl_wait."+tag, postStats.ControlWait),
		surgeWaitRow("surge.data_wait."+tag, postStats.DataWait),
	)

	if check {
		// The scheduler bound is QueueLimit plus one guarantee slot per
		// registered client (plus the two probes).
		if bound := sc.queue + sc.clients + 2; postStats.MaxQueuedData > bound {
			return rows, fmt.Errorf("surge: data queue reached %d, bound %d (limit %d + %d clients)",
				postStats.MaxQueuedData, bound, sc.queue, sc.clients+2)
		}
		if shedDelta == 0 {
			return rows, fmt.Errorf("surge: %d clients never tripped the %d-deep queue; bench not exercising overload",
				sc.clients, sc.queue)
		}
		// Drop the probes first: close() waits for the per-connection
		// serve loops, which only exit when their sockets die.
		ctlConn.Close()
		victimConn.Close()
		srv.close()
		if st := srv.sched.Stats(); st.QueuedData != 0 || st.InFlight != 0 {
			return rows, fmt.Errorf("surge: post-close scheduler not drained: %+v", st)
		}
	}
	return rows, nil
}
