package detsim

import (
	"fmt"
	"time"

	"scalla/internal/cluster"
	"scalla/internal/names"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
)

// stageBase is the minimum simulated staging time; a jitter draw of the
// same magnitude is added per request.
const stageBase = 750 * time.Millisecond

// server is one simulated data server: a real store behind a
// scheduler-owned link. The goroutine running loop is active only
// between a frame Push and the next idle signal, so from the
// scheduler's point of view handling a query is one atomic sub-step.
type server struct {
	sim  *Sim
	id   int    // stable sim id (never reused)
	name string // cluster identity
	addr string // data-plane address

	idx    int // current membership table index
	online bool
	gen    uint64 // bumped per crash and restart: frames of dead connections

	st     *store.Store
	mgrEnd *transport.SchedConn // manager's end: queries are sent here
	srvEnd *transport.SchedConn // server's end: loop receives here
	idle   chan struct{}
}

func newServer(s *Sim, id int) *server {
	sv := &server{
		sim:    s,
		id:     id,
		name:   fmt.Sprintf("s%d", id),
		addr:   fmt.Sprintf("data-s%d", id),
		online: true,
		st:     store.New(store.Config{Clock: s.clk}),
		idle:   make(chan struct{}),
	}
	onSend := func(from *transport.SchedConn, frame []byte) error {
		return s.linkSend(sv, from, frame)
	}
	sv.mgrEnd, sv.srvEnd = transport.NewSchedPair("mgr:"+sv.name, sv.name, onSend)
	sv.srvEnd.SetRecvHook(func() { sv.idle <- struct{}{} })
	return sv
}

// login (re)registers the server with the membership table and records
// its current slot index.
func (sv *server) login() {
	idx, _, err := sv.sim.core.Table().Login(cluster.Member{
		Name:     sv.name,
		Role:     proto.RoleServer,
		DataAddr: sv.addr,
		Prefixes: names.NewPrefixSet("/"),
		Free:     sv.st.Free(),
	})
	if err != nil {
		panic(fmt.Sprintf("detsim: login %s: %v", sv.name, err))
	}
	sv.idx = idx
}

// loop is the server process: signal idle, block for a frame, answer
// it, repeat. It exits when the scheduler closes the endpoint.
func (sv *server) loop() {
	for {
		f, err := sv.srvEnd.RecvFrame()
		if err != nil {
			return
		}
		m, err := proto.Unmarshal(f.Bytes())
		f.Release()
		if err != nil {
			continue
		}
		if q, ok := m.(proto.Query); ok {
			sv.handle(q)
		}
	}
}

// handle answers one location query exactly like a real data server:
// an online copy is a definitive have, a mass-storage copy is a
// pending have plus a staging request, silence otherwise.
func (sv *server) handle(q proto.Query) {
	switch {
	case sv.st.HasOnline(q.Path):
		sv.reply(q, false)
	case sv.st.Has(q.Path):
		sv.reply(q, true)
		sv.sim.requestStage(sv, q.Path)
	}
}

func (sv *server) reply(q proto.Query, pending bool) {
	_ = transport.SendMessage(sv.srvEnd, proto.Have{
		QID: q.QID, Path: q.Path, Hash: q.Hash, Pending: pending, CanWrite: true,
	})
}

// requestStage schedules the staging completion for (sv, path) once.
// The real store spawns a clock-sleeping goroutine for this; the
// harness models it as an explicit event so the promotion instant is a
// scheduler decision.
func (s *Sim) requestStage(sv *server, path string) {
	key := fmt.Sprintf("s%d|%s", sv.id, path)
	if s.stageStarted[key] {
		return
	}
	s.stageStarted[key] = true
	s.stagePending[stageKey{sv, path}] = true
	delay := stageBase + s.jitter(stageBase)
	s.schedule(s.clk.Now().Add(delay), &event{kind: evStage, sv: sv, path: path})
}

// stageKey identifies one in-flight stage for the Vp service fence.
type stageKey struct {
	sv   *server
	path string
}
