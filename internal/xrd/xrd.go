// Package xrd implements the data server — Scalla's xrootd daemon.
//
// A data server owns a Store and serves the file-access plane:
// open/read/write/close/stat/unlink/prepare. Files that live only in
// the simulated Mass Storage System are staged on demand; clients asking
// for a staging file are told to wait and retry (the Vp path of the
// paper). The server tracks a load figure (open handles plus in-flight
// requests) that the cluster layer reports upward for server selection.
package xrd

import (
	"sync"
	"sync/atomic"

	"scalla/internal/mux"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
)

// Config parameterizes a Server.
type Config struct {
	// Store backs the server. Required.
	Store *store.Store
	// ReadOnly refuses writes, creates, and unlinks.
	ReadOnly bool
	// StageWaitMillis is the retry hint sent with Wait responses while a
	// file stages. Default 300.
	StageWaitMillis uint32
	// Workers bounds how many requests execute concurrently across all
	// of the server's connections (the scheduled dispatch of DESIGN.md
	// §11). Default 8.
	Workers int
	// DispatchQueue bounds queued-but-not-executing data-plane requests
	// summed over all connections; arrivals beyond it are answered with
	// RetryAfter (the shed verdict of DESIGN.md §11). Default 1024.
	DispatchQueue int
	// RetryAfterMillis is the nominal shed backoff hint; each verdict
	// carries a jittered value around it. Default 100.
	RetryAfterMillis int
	// SchedSeed seeds the shed-jitter RNG so shed verdicts are
	// deterministic for a fixed arrival order.
	SchedSeed int64
	// Tracer, if set, records one span per dispatched request.
	Tracer *obs.Tracer
	// Logf, if set, receives debug logging.
	Logf func(format string, args ...any)
}

// Server is a data server. Create one with New, then Serve a listener.
type Server struct {
	cfg   Config
	sched *mux.Scheduler

	mu      sync.Mutex
	handles map[uint64]*handle
	nextFH  uint64

	inflight atomic.Int64
	closed   atomic.Bool

	opens        atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	staged       atomic.Int64 // Wait replies issued for staging files
}

// Stats is a snapshot of the data plane's cumulative op counters, used
// by the summary-monitoring stream and the status endpoints.
type Stats struct {
	OpenHandles  int   // handles currently open
	Inflight     int   // requests currently executing
	Opens        int64 // successful opens
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Staged       int64 // Wait replies issued while files staged
}

type handle struct {
	path  string
	write bool
	own   handleSet // the opening connection's set; guarded by Server.mu
}

// handleSet holds the handles one connection opened and has not closed,
// so its disconnect can drop them. Guarded by Server.mu.
type handleSet map[uint64]struct{}

// New returns a Server over the given configuration.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("xrd: Config.Store is required")
	}
	if cfg.StageWaitMillis == 0 {
		cfg.StageWaitMillis = 300
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Server{
		cfg: cfg,
		sched: mux.NewScheduler(mux.SchedConfig{
			Workers:          cfg.Workers,
			QueueLimit:       cfg.DispatchQueue,
			RetryAfterMillis: cfg.RetryAfterMillis,
			Seed:             cfg.SchedSeed,
		}),
		handles: make(map[uint64]*handle),
	}
}

// Sched exposes the request scheduler for observability snapshots.
func (s *Server) Sched() *mux.Scheduler { return s.sched }

// Store returns the backing store.
func (s *Server) Store() *store.Store { return s.cfg.Store }

// Stats returns a snapshot of the cumulative op counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	h := len(s.handles)
	s.mu.Unlock()
	return Stats{
		OpenHandles:  h,
		Inflight:     int(s.inflight.Load()),
		Opens:        s.opens.Load(),
		Reads:        s.reads.Load(),
		Writes:       s.writes.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Staged:       s.staged.Load(),
	}
}

// Load returns the current load figure used for server selection.
func (s *Server) Load() uint32 {
	s.mu.Lock()
	h := len(s.handles)
	s.mu.Unlock()
	return uint32(h) + uint32(s.inflight.Load())
}

// Serve accepts and handles connections until the listener fails
// (typically because it was closed). It blocks; run it in a goroutine.
func (s *Server) Serve(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go s.handleConn(conn)
	}
}

// Close marks the server closed, discards queued requests, and waits
// for in-flight handlers to return; existing connections then drain
// naturally.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.sched.Close()
}

func (s *Server) handleConn(conn transport.Conn) {
	defer conn.Close()
	// Handles are per-connection in spirit; track the ones opened here
	// so a dropped client leaks nothing. close prunes the set, so a
	// long-lived connection holds only its open handles.
	own := handleSet{}
	defer func() {
		s.mu.Lock()
		for fh := range own {
			delete(s.handles, fh)
		}
		s.mu.Unlock()
	}()
	mux.Serve(conn, func(msg proto.Message, r mux.Responder) proto.Message {
		if s.closed.Load() {
			return nil
		}
		s.inflight.Add(1)
		reply := s.dispatch(msg, r, own)
		s.inflight.Add(-1)
		return reply
	}, mux.ServeOptions{
		Sched:  s.sched,
		Tracer: s.cfg.Tracer,
		OnError: func(err error) {
			s.cfg.Logf("xrd: bad frame from %s: %v", conn.RemoteAddr(), err)
		},
	})
}

// dispatch handles one request on a connection whose handles are own.
// Reads and inline opens reply through the responder's single-copy
// frame path and return nil.
func (s *Server) dispatch(msg proto.Message, r mux.Responder, own handleSet) proto.Message {
	var f *proto.Frame // a single-copy reply, sent in place of a message
	var reply proto.Message
	switch m := msg.(type) {
	case proto.Open:
		f, reply = s.open(m, r.Stream(), own)
	case proto.Read:
		f, reply = s.readFrame(m, r.Stream())
	case proto.Write:
		reply = s.write(m)
	case proto.Trunc:
		reply = s.trunc(m)
	case proto.Close:
		reply = s.close(m)
	case proto.Stat:
		reply = s.stat(m)
	case proto.Unlink:
		reply = s.unlink(m)
	case proto.Prepare:
		reply = s.prepare(m)
	case proto.List:
		reply = s.list(m)
	case proto.Ping:
		reply = proto.Pong{Load: s.Load(), Free: s.cfg.Store.Free()}
	default:
		reply = proto.Err{Code: proto.EInval, Msg: "unexpected message"}
	}
	if f != nil {
		if err := r.SendFrame(f); err != nil {
			s.cfg.Logf("xrd: reply failed: %v", err)
		}
	}
	return reply
}

// open answers an Open on stream. A read-only open of an online file
// no larger than min(m.Inline, MaxFrame/2) is answered inline: the
// returned frame is an OpenOK carrying the whole file and no handle is
// issued. Every other open returns a reply message, issuing a handle
// into own on success.
func (s *Server) open(m proto.Open, stream uint32, own handleSet) (*proto.Frame, proto.Message) {
	st := s.cfg.Store
	if m.Create {
		if s.cfg.ReadOnly {
			return nil, proto.Err{Code: proto.EIO, Msg: "read-only server"}
		}
		if err := st.Create(m.Path); err == store.ErrExists {
			return nil, proto.Err{Code: proto.EExist, Msg: "file exists"}
		} else if err != nil {
			return nil, proto.Err{Code: proto.EIO, Msg: err.Error()}
		}
		return nil, s.issue(m.Path, true, 0, own)
	}
	if m.Write && s.cfg.ReadOnly {
		return nil, proto.Err{Code: proto.EIO, Msg: "read-only server"}
	}
	info, err := st.Stat(m.Path)
	if err != nil {
		return nil, proto.Err{Code: proto.ENoEnt, Msg: "no such file"}
	}
	if !info.Online {
		// Kick staging and tell the client to come back.
		if _, err := st.Stage(m.Path); err != nil {
			return nil, proto.Err{Code: proto.EIO, Msg: err.Error()}
		}
		s.staged.Add(1)
		return nil, proto.Wait{Millis: s.cfg.StageWaitMillis}
	}
	if !m.Write && info.Size <= int64(min(m.Inline, transport.MaxFrame/2)) {
		f, dst := proto.StartInlineOpenFrame(stream, info.Size, int(info.Size))
		f, reply := s.fill(f, dst, m.Path, 0)
		if f != nil {
			s.opens.Add(1)
		}
		return f, reply
	}
	return nil, s.issue(m.Path, m.Write, info.Size, own)
}

// issue registers a new handle for path in the server table and in the
// opening connection's set own.
func (s *Server) issue(path string, write bool, size int64, own handleSet) proto.Message {
	s.mu.Lock()
	s.nextFH++
	fh := s.nextFH
	s.handles[fh] = &handle{path: path, write: write, own: own}
	own[fh] = struct{}{}
	s.mu.Unlock()
	s.opens.Add(1)
	return proto.OpenOK{FH: fh, Size: size}
}

func (s *Server) lookup(fh uint64) (*handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handles[fh]
	return h, ok
}

// readFrame builds the single-copy Data frame for a Read — the payload
// is copied from the store directly into a pooled, stream-tagged frame
// with no intermediate buffer — or returns the non-Data verdict
// instead. The caller owns the returned frame.
func (s *Server) readFrame(m proto.Read, stream uint32) (*proto.Frame, proto.Message) {
	h, ok := s.lookup(m.FH)
	if !ok {
		return nil, proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	if m.N > transport.MaxFrame/2 {
		m.N = transport.MaxFrame / 2
	}
	f, dst := proto.StartDataFrame(stream, m.FH, int(m.N))
	return s.fill(f, dst, h.path, m.Off)
}

// fill reads path at off into dst, the payload of a frame begun by
// StartDataFrame or StartInlineOpenFrame, and finishes the frame. On a
// store failure it releases the frame and returns the verdict instead.
func (s *Server) fill(f *proto.Frame, dst []byte, path string, off int64) (*proto.Frame, proto.Message) {
	n, eof, err := s.cfg.Store.ReadAtInto(path, off, dst)
	switch err {
	case nil:
		f.FinishData(n, eof)
		s.reads.Add(1)
		s.bytesRead.Add(int64(n))
		return f, nil
	case store.ErrStaging:
		f.Release()
		s.staged.Add(1)
		return nil, proto.Wait{Millis: s.cfg.StageWaitMillis}
	case store.ErrNotFound:
		// The file vanished under the handle (deleted elsewhere). The
		// client recovers with a cache refresh (Section III-C1).
		f.Release()
		return nil, proto.Err{Code: proto.ENoEnt, Msg: "file removed"}
	default:
		f.Release()
		return nil, proto.Err{Code: proto.EIO, Msg: err.Error()}
	}
}

func (s *Server) write(m proto.Write) proto.Message {
	h, ok := s.lookup(m.FH)
	if !ok {
		return proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	if !h.write {
		return proto.Err{Code: proto.EInval, Msg: "handle is read-only"}
	}
	n, err := s.cfg.Store.WriteAt(h.path, m.Off, m.Bytes)
	switch err {
	case nil:
	case store.ErrOffline:
		// The file was staged out after open. Kick a stage-in and tell
		// the client to wait, the same Vp verdict reads get.
		s.cfg.Store.Stage(h.path)
		s.staged.Add(1)
		return proto.Wait{Millis: s.cfg.StageWaitMillis}
	case store.ErrNoSpace:
		return proto.Err{Code: proto.EIO, Msg: "no space left"}
	default:
		return proto.Err{Code: proto.EIO, Msg: err.Error()}
	}
	s.writes.Add(1)
	s.bytesWritten.Add(int64(n))
	return proto.WriteOK{FH: m.FH, N: uint32(n)}
}

func (s *Server) trunc(m proto.Trunc) proto.Message {
	h, ok := s.lookup(m.FH)
	if !ok {
		return proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	if !h.write {
		return proto.Err{Code: proto.EInval, Msg: "handle is read-only"}
	}
	switch err := s.cfg.Store.Truncate(h.path, m.Size); err {
	case nil:
	case store.ErrOffline:
		s.cfg.Store.Stage(h.path)
		s.staged.Add(1)
		return proto.Wait{Millis: s.cfg.StageWaitMillis}
	default:
		return proto.Err{Code: proto.EIO, Msg: err.Error()}
	}
	return proto.TruncOK{FH: m.FH}
}

func (s *Server) close(m proto.Close) proto.Message {
	s.mu.Lock()
	h, ok := s.handles[m.FH]
	if ok {
		delete(s.handles, m.FH)
		delete(h.own, m.FH)
	}
	s.mu.Unlock()
	if !ok {
		return proto.Err{Code: proto.EInval, Msg: "bad file handle"}
	}
	return proto.CloseOK{FH: m.FH}
}

func (s *Server) stat(m proto.Stat) proto.Message {
	info, err := s.cfg.Store.Stat(m.Path)
	if err != nil {
		return proto.StatOK{Exists: false}
	}
	return proto.StatOK{Exists: true, Size: info.Size, Online: info.Online}
}

func (s *Server) unlink(m proto.Unlink) proto.Message {
	if s.cfg.ReadOnly {
		return proto.Err{Code: proto.EIO, Msg: "read-only server"}
	}
	if err := s.cfg.Store.Unlink(m.Path); err != nil {
		return proto.Err{Code: proto.ENoEnt, Msg: "no such file"}
	}
	return proto.UnlinkOK{}
}

// prepare kicks staging for every named file that is offline here. The
// reply is immediate; staging proceeds in the background (Section
// III-B2).
func (s *Server) prepare(m proto.Prepare) proto.Message {
	queued := uint32(0)
	for _, p := range m.Paths {
		if s.cfg.Store.Has(p) && !s.cfg.Store.HasOnline(p) {
			if _, err := s.cfg.Store.Stage(p); err == nil {
				queued++
			}
		}
	}
	return proto.PrepareOK{Queued: queued}
}

// list reports this server's files under a prefix, feeding the Cluster
// Name Space daemon.
func (s *Server) list(m proto.List) proto.Message {
	infos := s.cfg.Store.List(m.Prefix)
	entries := make([]proto.Entry, len(infos))
	for i, in := range infos {
		entries[i] = proto.Entry{Path: in.Path, Size: in.Size, Online: in.Online}
	}
	return proto.ListOK{Entries: entries}
}

// Handles returns the number of open file handles (for tests and load
// inspection).
func (s *Server) Handles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.handles)
}
