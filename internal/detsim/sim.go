package detsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"scalla/internal/cache"
	"scalla/internal/cluster"
	"scalla/internal/cmsd"
	"scalla/internal/faults"
	"scalla/internal/names"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/respq"
	"scalla/internal/transport"
	"scalla/internal/vclock"
)

// evKind enumerates the discrete-event types the scheduler executes.
type evKind int

const (
	evClientOp  evKind = iota // start or retry one client operation
	evQuery                   // deliver a query frame to a server
	evHave                    // deliver a have frame to the manager
	evRespqTick               // fast-response clock period
	evCacheTick               // cache window tick
	evCrash                   // take a server offline
	evRestart                 // bring a crashed server back
	evDrop                    // drop-delay lapse for an offline slot
	evStage                   // a staging request completes
)

// event is one scheduled occurrence. The heap orders by (due, seq), so
// ties break in scheduling order and the execution is a total order.
type event struct {
	due  time.Time
	seq  uint64
	kind evKind

	cp    *clientProc
	sv    *server
	frame []byte
	gen   uint64 // sender connection generation (frames) or cluster gen (evDrop)
	idx   int    // table index for evDrop
	path  string // for evStage
}

type evHeap []*event

func (h evHeap) Len() int { return len(h) }
func (h evHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h evHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *evHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// doneMsg is one finished client resolution, sent by the resolution
// goroutine back to the scheduler.
type doneMsg struct {
	cp  *clientProc
	out cmsd.Outcome
}

// fileModel is the ground truth the harness validates redirects
// against: which servers (by stable sim id) hold the file online and
// which only in mass storage.
type fileModel struct {
	exists bool
	online map[int]bool
	mss    map[int]bool
}

// wedgeTimeout is the real-time bound on waiting for an expected
// resolution completion. It fires only when a waiter was lost — the
// exactly-once violation the harness exists to catch — or the core
// deadlocked outright.
const wedgeTimeout = 10 * time.Second

// maxAttempts bounds retries of a single operation before the harness
// declares a livelock.
const maxAttempts = 200

// Sim is one running simulation. All fields are owned by the scheduler
// goroutine; client and server goroutines touch them only while the
// scheduler is blocked on the corresponding handshake channel.
type Sim struct {
	cfg   Config
	rng   *rand.Rand
	clk   *vclock.Fake
	epoch time.Time

	core    *cmsd.Core
	servers []*server
	clients []*clientProc
	files   map[string]*fileModel

	eq  evHeap
	seq uint64

	awaitCh chan struct{} // park handshake from cmsd.Config.OnAwait
	done    chan doneMsg

	trace  *obs.TraceHash
	steps  int
	parked int

	// refreshGuard records, per path, until when a client-forced
	// refresh may legitimately coexist with an earlier live flood.
	refreshGuard map[string]time.Time
	// stageStarted dedups staging requests per (server, path).
	stageStarted map[string]bool
	// stagePending holds the stages requested but not yet completed —
	// the harness's Vp interval. Invariant 4 asserts no store serves
	// bytes for a (server, path) inside it.
	stagePending map[stageKey]bool

	opsLeft    int
	violations []string
	abort      bool
	endTime    time.Time

	nRedirects, nWaits, nNoEnts, nRetries, nCrashed, nStaged int
}

const (
	cpIdle = iota
	cpParked
	cpDone
)

// opKind labels a client operation for the trace and the validator.
type op struct {
	kind    string // "read", "create", "write", "refresh"
	path    string
	write   bool
	create  bool
	refresh bool
}

// clientProc is one simulated client: a sequential program of ops.
type clientProc struct {
	id       int
	ops      []op
	cur      int
	state    int
	attempts int
	opStart  time.Time
}

func newSim(cfg Config) *Sim {
	s := &Sim{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		clk:          vclock.NewFake(),
		files:        make(map[string]*fileModel),
		awaitCh:      make(chan struct{}),
		done:         make(chan doneMsg, cfg.Clients+4),
		trace:        obs.NewTraceHash(),
		refreshGuard: make(map[string]time.Time),
		stageStarted: make(map[string]bool),
		stagePending: make(map[stageKey]bool),
	}
	s.epoch = s.clk.Now()
	s.endTime = s.epoch.Add(cfg.MaxSimTime)

	s.core = cmsd.NewCore(cmsd.Config{
		Manual:    true,
		OnAwait:   func() { s.awaitCh <- struct{}{} },
		FullDelay: cfg.FullDelay,
		Clock:     s.clk,
		Cache: cache.Config{
			Lifetime:       cfg.Lifetime,
			Deadline:       cfg.FullDelay,
			Shards:         4,
			InitialBuckets: 128,
			SyncSweep:      true,
		},
		Queue:   respq.Config{Slots: cfg.Slots, Period: cfg.Period},
		Cluster: cluster.Config{DropDelay: cfg.DropDelay},
	})
	s.core.SetQuerySender(s.sendQuery)

	s.tracef("init seed=%d servers=%d clients=%d ops=%d paths=%d slots=%d faults=%v crashes=%d",
		cfg.Seed, cfg.Servers, cfg.Clients, cfg.OpsPerClient, cfg.Paths,
		cfg.Slots, cfg.Plan.Active(), cfg.Crashes)

	s.buildServers()
	s.preload()
	s.buildClients()
	s.scheduleBackground()
	return s
}

// sendQuery is the QuerySender installed into the core: a query to an
// offline server is unsendable (the bit stays in Vq), anything else is
// handed to the link layer for a latency/fault draw.
func (s *Sim) sendQuery(index int, q proto.Query) bool {
	sv := s.byIndex(index)
	if sv == nil || !sv.online {
		return false
	}
	return transport.SendMessage(sv.mgrEnd, q) == nil
}

func (s *Sim) buildServers() {
	for i := 0; i < s.cfg.Servers; i++ {
		sv := newServer(s, i)
		s.servers = append(s.servers, sv)
		sv.login()
		go sv.loop()
		<-sv.idle // server parked at RecvFrame: the link is up
	}
}

func (s *Sim) preload() {
	for i := 0; i < s.cfg.Paths; i++ {
		path := fmt.Sprintf("/data/f%02d", i)
		fm := &fileModel{online: make(map[int]bool), mss: make(map[int]bool)}
		s.files[path] = fm
		if s.rng.Float64() >= 0.75 {
			continue // a quarter of the namespace does not exist
		}
		fm.exists = true
		holders := s.rng.Perm(s.cfg.Servers)[:1+s.rng.Intn(2)]
		sort.Ints(holders)
		for _, h := range holders {
			sv := s.servers[h]
			if s.rng.Float64() < 0.3 {
				sv.st.PutOffline(path, fileContent(path))
				fm.mss[h] = true
			} else {
				if err := sv.st.Put(path, fileContent(path)); err != nil {
					panic(err)
				}
				fm.online[h] = true
			}
		}
	}
}

func fileContent(path string) []byte { return []byte("data:" + path) }

func (s *Sim) buildClients() {
	for c := 0; c < s.cfg.Clients; c++ {
		cp := &clientProc{id: c}
		for k := 0; k < s.cfg.OpsPerClient; k++ {
			cp.ops = append(cp.ops, s.drawOp(c, k))
		}
		s.clients = append(s.clients, cp)
		s.opsLeft += len(cp.ops)
		s.schedule(s.epoch.Add(s.jitter(50*time.Millisecond)),
			&event{kind: evClientOp, cp: cp})
	}
}

func (s *Sim) drawOp(client, k int) op {
	r := s.rng.Float64()
	switch {
	case r < 0.55:
		return op{kind: "read", path: s.somePath()}
	case r < 0.70:
		return op{kind: "create", path: fmt.Sprintf("/new/c%d-n%d", client, k),
			write: true, create: true}
	case r < 0.80:
		return op{kind: "write", path: s.somePath(), write: true}
	default:
		return op{kind: "refresh", path: s.somePath(), refresh: true}
	}
}

func (s *Sim) somePath() string {
	return fmt.Sprintf("/data/f%02d", s.rng.Intn(s.cfg.Paths))
}

func (s *Sim) scheduleBackground() {
	s.schedule(s.epoch.Add(s.cfg.Period), &event{kind: evRespqTick})
	s.schedule(s.epoch.Add(s.cfg.Lifetime/64), &event{kind: evCacheTick})
	for k := 0; k < s.cfg.Crashes; k++ {
		sv := s.servers[s.rng.Intn(s.cfg.Servers)]
		at := s.epoch.Add(500*time.Millisecond + s.jitter(15*time.Second))
		s.schedule(at, &event{kind: evCrash, sv: sv})
		s.schedule(at.Add(s.cfg.RestartDelay), &event{kind: evRestart, sv: sv})
	}
}

// run is the scheduler loop: pop the next event, advance the one clock
// to its due time, execute it, then model-check the world.
func (s *Sim) run() Result {
	for len(s.eq) > 0 && !s.abort {
		ev := heap.Pop(&s.eq).(*event)
		if ev.due.After(s.endTime) {
			s.tracef("sim: time limit reached")
			break
		}
		s.clk.AdvanceTo(ev.due)
		s.steps++
		s.exec(ev)
		s.checkInvariants()
	}
	return s.finish()
}

func (s *Sim) exec(ev *event) {
	switch ev.kind {
	case evClientOp:
		s.stepClient(ev.cp)
	case evQuery:
		s.deliverQuery(ev)
	case evHave:
		s.deliverHave(ev)
	case evRespqTick:
		before := s.delivered()
		if n := s.core.Queue().ExpireNow(); n > 0 {
			s.tracef("t=%d respq expire waiters=%d", s.us(), n)
		}
		s.collectReleased(before)
		if s.opsLeft > 0 {
			s.schedule(s.clk.Now().Add(s.cfg.Period), &event{kind: evRespqTick})
		}
	case evCacheTick:
		s.core.Cache().Tick()
		if s.opsLeft > 0 {
			s.schedule(s.clk.Now().Add(s.cfg.Lifetime/64), &event{kind: evCacheTick})
		}
	case evCrash:
		s.crash(ev.sv)
	case evRestart:
		s.restart(ev.sv)
	case evDrop:
		s.tracef("t=%d drop-delay lapsed idx=%d gen=%d", s.us(), ev.idx, ev.gen)
		s.core.Table().MaybeDrop(ev.idx, ev.gen)
	case evStage:
		s.stageDone(ev.sv, ev.path)
	}
}

func (s *Sim) deliverQuery(ev *event) {
	sv := ev.sv
	if !sv.online || ev.gen != sv.gen {
		s.tracef("t=%d query to s%d dropped (conn gone)", s.us(), sv.id)
		return
	}
	var qid uint64
	if m, err := proto.Unmarshal(ev.frame); err == nil {
		if q, ok := m.(proto.Query); ok {
			qid = q.QID
		}
	}
	s.tracef("t=%d query qid=%d -> s%d", s.us(), qid, sv.id)
	if !sv.srvEnd.Push(ev.frame) {
		s.violate("server s%d inbox refused a frame", sv.id)
		return
	}
	<-sv.idle // the server handled the frame and parked again
}

func (s *Sim) deliverHave(ev *event) {
	sv := ev.sv
	if ev.gen != sv.gen {
		s.tracef("t=%d have from s%d dropped (conn gone)", s.us(), sv.id)
		return
	}
	m, err := proto.Unmarshal(ev.frame)
	if err != nil {
		s.violate("undecodable have frame from s%d: %v", sv.id, err)
		return
	}
	h, ok := m.(proto.Have)
	if !ok {
		s.violate("unexpected %T from s%d", m, sv.id)
		return
	}
	before := s.delivered()
	n := s.core.HandleHave(sv.idx, h)
	s.tracef("t=%d have qid=%d s%d path=%s pending=%v released=%d",
		s.us(), h.QID, sv.id, h.Path, h.Pending, n)
	s.collectReleased(before)
}

func (s *Sim) crash(sv *server) {
	if !sv.online {
		s.tracef("t=%d crash s%d skipped (already down)", s.us(), sv.id)
		return
	}
	sv.online = false
	sv.gen++
	s.nCrashed++
	s.tracef("t=%d crash s%d", s.us(), sv.id)
	// DisconnectManual fires OnOffline synchronously, which refloods
	// live queries the member was part of — on this goroutine, so the
	// RNG draws stay ordered.
	if gen, ok := s.core.Table().DisconnectManual(sv.idx); ok {
		s.schedule(s.clk.Now().Add(s.cfg.DropDelay),
			&event{kind: evDrop, idx: sv.idx, gen: gen})
	}
}

func (s *Sim) restart(sv *server) {
	if sv.online {
		s.tracef("t=%d restart s%d skipped (already up)", s.us(), sv.id)
		return
	}
	sv.online = true
	sv.gen++
	sv.login()
	s.tracef("t=%d restart s%d idx=%d", s.us(), sv.id, sv.idx)
	s.core.MemberUp(sv.idx)
}

func (s *Sim) stageDone(sv *server, path string) {
	delete(s.stagePending, stageKey{sv, path})
	if err := sv.st.Put(path, fileContent(path)); err != nil {
		s.violate("stage promote failed on s%d: %v", sv.id, err)
		return
	}
	s.nStaged++
	fm := s.files[path]
	if fm != nil {
		delete(fm.mss, sv.id)
		fm.online[sv.id] = true
	}
	s.tracef("t=%d staged s%d path=%s", s.us(), sv.id, path)
}

// stepClient runs one resolution attempt for cp on its own goroutine
// and blocks until the resolution either parks on the fast response
// queue (the OnAwait handshake) or completes. Completions of other
// clients released mid-step (the optimistic-create path) are collected
// before the scheduler moves on, so the step is atomic.
func (s *Sim) stepClient(cp *clientProc) {
	if cp.state != cpIdle || cp.cur >= len(cp.ops) {
		s.violate("client %d stepped in state %d", cp.id, cp.state)
		return
	}
	o := cp.ops[cp.cur]
	now := s.clk.Now()
	if cp.attempts == 0 {
		cp.opStart = now
	}
	cp.attempts++
	if cp.attempts > maxAttempts {
		s.violate("client %d livelocked on op %d (%s %s)", cp.id, cp.cur, o.kind, o.path)
		cp.state = cpDone
		s.opsLeft--
		return
	}
	req := cmsd.Request{Path: o.path, Write: o.write, Create: o.create}
	if o.refresh && cp.attempts == 1 {
		// A client-forced refresh deliberately re-floods; remember so
		// the flood-uniqueness invariant tolerates the overlap.
		req.Refresh = true
		s.refreshGuard[names.Clean(o.path)] = now.Add(s.cfg.FullDelay)
	}
	s.tracef("t=%d c%d %s %s attempt=%d", s.us(), cp.id, o.kind, o.path, cp.attempts)

	before := s.delivered()
	go func() { s.done <- doneMsg{cp, s.core.Resolve(req)} }()

	var own *doneMsg
	var strays []doneMsg
	parkedHere := false
	wedge := time.After(wedgeTimeout)
	for own == nil && !parkedHere {
		select {
		case <-s.awaitCh:
			parkedHere = true
		case d := <-s.done:
			if d.cp == cp {
				dd := d
				own = &dd
			} else {
				strays = append(strays, d)
			}
		case <-wedge:
			s.violate("client %d resolution wedged on %s %s", cp.id, o.kind, o.path)
			s.abort = true
			return
		}
	}
	if parkedHere {
		if len(strays) != 0 {
			s.violate("client %d parked but %d completions appeared mid-step",
				cp.id, len(strays))
		}
		cp.state = cpParked
		s.parked++
		s.tracef("t=%d c%d parked", s.us(), cp.id)
		return
	}

	// The step released this many parked waiters; each is a client
	// completion the scheduler must absorb before the next decision.
	expect := int(s.delivered() - before)
	for len(strays) < expect {
		select {
		case d := <-s.done:
			strays = append(strays, d)
		case <-time.After(wedgeTimeout):
			s.violate("exactly-once: %d of %d completions released by c%d's step arrived",
				len(strays), expect, cp.id)
			s.abort = true
			return
		}
	}
	s.finishAttempt(cp, own.out)
	sort.Slice(strays, func(i, j int) bool { return strays[i].cp.id < strays[j].cp.id })
	for _, d := range strays {
		if d.cp.state != cpParked {
			s.violate("completion for client %d which was not parked", d.cp.id)
			continue
		}
		s.finishAttempt(d.cp, d.out)
	}
}

// delivered returns the cumulative waiters handed a result by the fast
// response queue — the scheduler's ledger for exactly-once accounting.
func (s *Sim) delivered() int64 {
	st := s.core.Queue().Stats()
	return st.ReleasedWaiters + st.ExpiredWaiters
}

// collectReleased blocks until every client completion implied by the
// waiter-delivery delta since before has arrived, then applies them in
// client order. A shortfall is a lost waiter: the exactly-once
// violation.
func (s *Sim) collectReleased(before int64) {
	expect := int(s.delivered() - before)
	if expect == 0 {
		return
	}
	msgs := make([]doneMsg, 0, expect)
	wedge := time.After(wedgeTimeout)
	for len(msgs) < expect {
		select {
		case d := <-s.done:
			msgs = append(msgs, d)
		case <-wedge:
			s.violate("exactly-once: %d of %d released completions arrived",
				len(msgs), expect)
			s.abort = true
			return
		}
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].cp.id < msgs[j].cp.id })
	for _, d := range msgs {
		if d.cp.state != cpParked {
			s.violate("completion for client %d which was not parked", d.cp.id)
			continue
		}
		s.finishAttempt(d.cp, d.out)
	}
}

// finishAttempt applies one resolution outcome to its client: schedule
// the retry, or validate and complete the operation.
func (s *Sim) finishAttempt(cp *clientProc, out cmsd.Outcome) {
	if cp.state == cpParked {
		s.parked--
	}
	cp.state = cpIdle
	o := cp.ops[cp.cur]
	now := s.clk.Now()
	switch out.Kind {
	case cmsd.KindRetry:
		s.nRetries++
		s.tracef("t=%d c%d retry", s.us(), cp.id)
		s.schedule(now.Add(time.Millisecond), &event{kind: evClientOp, cp: cp})
	case cmsd.KindWait:
		s.nWaits++
		s.tracef("t=%d c%d wait %dms", s.us(), cp.id, out.Millis)
		s.schedule(now.Add(time.Duration(out.Millis)*time.Millisecond),
			&event{kind: evClientOp, cp: cp})
	case cmsd.KindNoEnt:
		s.nNoEnts++
		s.validateNoEnt(cp, o)
		s.completeOp(cp, "noent", -1)
	case cmsd.KindRedirect:
		s.nRedirects++
		s.validateRedirect(cp, o, out)
		s.completeOp(cp, "redirect", out.Index)
	default:
		s.violate("client %d got unknown outcome kind %d", cp.id, out.Kind)
		s.completeOp(cp, "unknown", -1)
	}
}

func (s *Sim) completeOp(cp *clientProc, how string, idx int) {
	now := s.clk.Now()
	took := now.Sub(cp.opStart)
	o := cp.ops[cp.cur]
	s.tracef("t=%d c%d %s %s done %s idx=%d took=%dus attempts=%d",
		s.us(), cp.id, o.kind, o.path, how, idx, took.Microseconds(), cp.attempts)
	if took > s.cfg.MaxOpTime {
		s.violate("client %d op %d (%s %s) took %s, past the %s resolution bound",
			cp.id, cp.cur, o.kind, o.path, took, s.cfg.MaxOpTime)
	}
	cp.cur++
	cp.attempts = 0
	s.opsLeft--
	if cp.cur >= len(cp.ops) {
		cp.state = cpDone
		return
	}
	s.schedule(now.Add(s.jitter(20*time.Millisecond)), &event{kind: evClientOp, cp: cp})
}

func (s *Sim) validateRedirect(cp *clientProc, o op, out cmsd.Outcome) {
	sv := s.byIndex(out.Index)
	if sv == nil {
		s.violate("client %d redirected to unknown index %d", cp.id, out.Index)
		return
	}
	if !sv.online {
		s.violate("client %d redirected to offline server s%d for %s", cp.id, sv.id, o.path)
		return
	}
	fm := s.files[o.path]
	if o.create && (fm == nil || !fm.exists) {
		// Creation lands here: the redirect target becomes the holder.
		if fm == nil {
			fm = &fileModel{online: make(map[int]bool), mss: make(map[int]bool)}
			s.files[o.path] = fm
		}
		if err := sv.st.Put(o.path, fileContent(o.path)); err != nil {
			s.violate("create install on s%d failed: %v", sv.id, err)
			return
		}
		fm.exists = true
		fm.online[sv.id] = true
		return
	}
	if fm == nil || !fm.exists {
		s.violate("client %d redirected to s%d for %s which does not exist",
			cp.id, sv.id, o.path)
		return
	}
	if !fm.online[sv.id] && !fm.mss[sv.id] {
		s.violate("client %d redirected to s%d which does not hold %s",
			cp.id, sv.id, o.path)
	}
}

func (s *Sim) validateNoEnt(cp *clientProc, o op) {
	if !s.cfg.strict() {
		return
	}
	if o.create {
		s.violate("client %d create %s returned noent in a strict run", cp.id, o.path)
		return
	}
	fm := s.files[o.path]
	if fm != nil && fm.exists {
		s.violate("client %d got noent for existing file %s in a strict run", cp.id, o.path)
	}
}

// linkSend is the SchedConn send hook for server sv's pair: it draws
// the fault decision and latency and enqueues the delivery event. It
// runs on whichever goroutine called Send, but always while the
// scheduler is blocked on that goroutine's handshake, so the RNG and
// event heap stay serialized.
func (s *Sim) linkSend(sv *server, from *transport.SchedConn, frame []byte) error {
	kind := evHave
	if from == sv.mgrEnd {
		kind = evQuery
	}
	dec, extra := faults.PassThrough, time.Duration(0)
	if s.cfg.Plan.Active() {
		dec, extra = s.cfg.Plan.Decide(s.rng)
	}
	switch dec {
	case faults.DropFrame:
		s.tracef("t=%d fault drop kind=%d s%d", s.us(), kind, sv.id)
		return nil
	case faults.DupFrame:
		s.tracef("t=%d fault dup kind=%d s%d", s.us(), kind, sv.id)
		s.enqueueFrame(kind, sv, frame, s.latency())
		s.enqueueFrame(kind, sv, frame, s.latency())
		return nil
	case faults.DelayFrame:
		s.tracef("t=%d fault delay kind=%d s%d by=%dus", s.us(), kind, sv.id, extra.Microseconds())
		s.enqueueFrame(kind, sv, frame, s.latency()+extra)
		return nil
	case faults.ReorderFrame:
		// An adjacent swap in a discrete-event world: push the frame one
		// extra latency draw into the future so later traffic overtakes it.
		held := s.latency() + s.latency()
		s.tracef("t=%d fault reorder kind=%d s%d", s.us(), kind, sv.id)
		s.enqueueFrame(kind, sv, frame, held)
		return nil
	}
	s.enqueueFrame(kind, sv, frame, s.latency())
	return nil
}

func (s *Sim) enqueueFrame(kind evKind, sv *server, frame []byte, lat time.Duration) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	s.schedule(s.clk.Now().Add(lat),
		&event{kind: kind, sv: sv, frame: cp, gen: sv.gen})
}

func (s *Sim) latency() time.Duration {
	span := int64(s.cfg.MaxLatency - s.cfg.MinLatency)
	if span <= 0 {
		return s.cfg.MinLatency
	}
	return s.cfg.MinLatency + time.Duration(s.rng.Int63n(span+1))
}

func (s *Sim) jitter(max time.Duration) time.Duration {
	return time.Duration(s.rng.Int63n(int64(max)))
}

func (s *Sim) schedule(due time.Time, ev *event) {
	ev.due = due
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.eq, ev)
}

func (s *Sim) byIndex(index int) *server {
	for _, sv := range s.servers {
		if sv.idx == index {
			return sv
		}
	}
	return nil
}

func (s *Sim) us() int64 { return s.clk.Now().Sub(s.epoch).Microseconds() }

func (s *Sim) tracef(format string, args ...any) {
	s.trace.Addf(format, args...)
	if s.cfg.Debug != nil {
		fmt.Fprintf(s.cfg.Debug, format+"\n", args...)
	}
}

func (s *Sim) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.violations = append(s.violations, msg)
	s.tracef("VIOLATION: %s", msg)
	if len(s.violations) >= 8 {
		s.abort = true
	}
}

func (s *Sim) finish() Result {
	for _, cp := range s.clients {
		if cp.cur < len(cp.ops) && !s.abort {
			o := cp.ops[cp.cur]
			s.violate("client %d stalled: op %d (%s %s) never resolved",
				cp.id, cp.cur, o.kind, o.path)
		}
	}
	st := s.core.Queue().Stats()
	s.tracef("final respq entries=%d joins=%d released=%d expired=%d full=%d inuse=%d rw=%d ew=%d",
		st.Entries, st.Joins, st.Released, st.Expired, st.Full, st.InUse,
		st.ReleasedWaiters, st.ExpiredWaiters)
	s.tracef("final counts steps=%d redirects=%d waits=%d noents=%d retries=%d crashed=%d staged=%d parked=%d",
		s.steps, s.nRedirects, s.nWaits, s.nNoEnts, s.nRetries, s.nCrashed, s.nStaged, s.parked)

	// Tear down: unblock parked resolutions (they drain into the done
	// buffer) and EOF the server loops.
	s.core.Close()
	for _, sv := range s.servers {
		sv.srvEnd.Close()
		sv.mgrEnd.Close()
	}

	total := s.cfg.Clients * s.cfg.OpsPerClient
	return Result{
		Seed:       s.cfg.Seed,
		Hash:       s.trace.Sum(),
		Lines:      s.trace.Len(),
		Steps:      s.steps,
		Ops:        total - s.opsLeft,
		Redirects:  s.nRedirects,
		Waits:      s.nWaits,
		NoEnts:     s.nNoEnts,
		Retries:    s.nRetries,
		Crashed:    s.nCrashed,
		Staged:     s.nStaged,
		Violations: s.violations,
	}
}
