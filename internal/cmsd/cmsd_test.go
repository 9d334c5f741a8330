package cmsd

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scalla/internal/cache"
	"scalla/internal/proto"
	"scalla/internal/respq"
	"scalla/internal/store"
	"scalla/internal/transport"
)

// Short timings so full-delay paths complete quickly in tests.
const (
	tFullDelay  = 150 * time.Millisecond
	tFastPeriod = 20 * time.Millisecond
)

func testCoreConfig() Config {
	return Config{
		Cache:     cache.Config{InitialBuckets: 89},
		Queue:     respq.Config{Period: tFastPeriod},
		FullDelay: tFullDelay,
	}
}

func startNode(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

func startManager(t *testing.T, net transport.Network, name string) *Node {
	return startNode(t, NodeConfig{
		Name: name, Role: proto.RoleManager,
		DataAddr: name + ":data", CtlAddr: name + ":ctl",
		Net: net, Core: testCoreConfig(),
		PingInterval:   50 * time.Millisecond,
		ReconnectDelay: 20 * time.Millisecond,
	})
}

func startSupervisor(t *testing.T, net transport.Network, name, parent string, prefixes ...string) *Node {
	if len(prefixes) == 0 {
		prefixes = []string{"/"}
	}
	return startNode(t, NodeConfig{
		Name: name, Role: proto.RoleSupervisor,
		DataAddr: name + ":data", CtlAddr: name + ":ctl",
		Parents: []string{parent}, Prefixes: prefixes,
		Net: net, Core: testCoreConfig(),
		PingInterval:   50 * time.Millisecond,
		ReconnectDelay: 20 * time.Millisecond,
	})
}

func startServer(t *testing.T, net transport.Network, name, parent string, st *store.Store, prefixes ...string) *Node {
	if st == nil {
		st = store.New(store.Config{StageDelay: 50 * time.Millisecond})
	}
	if len(prefixes) == 0 {
		prefixes = []string{"/"}
	}
	return startNode(t, NodeConfig{
		Name: name, Role: proto.RoleServer,
		DataAddr: name + ":data",
		Parents:  []string{parent}, Prefixes: prefixes,
		Net: net, Store: st,
		StageWaitMillis: 20,
		ReconnectDelay:  20 * time.Millisecond,
	})
}

func waitChildren(t *testing.T, n *Node, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.Core().Table().Count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("node %s: only %d of %d children joined", n.Name(), n.Core().Table().Count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// rpc sends one message and returns one reply over conn.
func rpc(t *testing.T, conn transport.Conn, m proto.Message) proto.Message {
	t.Helper()
	if err := conn.Send(proto.Marshal(m)); err != nil {
		t.Fatal(err)
	}
	f, err := conn.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := proto.Unmarshal(f.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// A Data reply aliases the frame; it goes to the GC with the reply.
	if !proto.AliasesFrame(reply) {
		f.Release()
	}
	return reply
}

// locate runs a Locate against addr, following Wait replies (sleeping as
// instructed) until a terminal reply arrives.
func locate(t *testing.T, net transport.Network, addr string, req proto.Locate) proto.Message {
	t.Helper()
	conn, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		reply := rpc(t, conn, req)
		w, isWait := reply.(proto.Wait)
		if !isWait {
			return reply
		}
		if time.Now().After(deadline) {
			t.Fatal("locate never terminated")
		}
		time.Sleep(time.Duration(w.Millis) * time.Millisecond)
	}
}

func TestResolveCachedAndUncached(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	stores := make([]*store.Store, 3)
	srvs := make([]*Node, 3)
	for i := range srvs {
		stores[i] = store.New(store.Config{})
		srvs[i] = startServer(t, net, fmt.Sprintf("srv%d", i), "mgr:ctl", stores[i])
	}
	waitChildren(t, mgr, 3)
	stores[1].Put("/store/a.root", []byte("data"))

	// First access floods queries and rides the fast response queue.
	start := time.Now()
	reply := locate(t, net, "mgr:data", proto.Locate{Path: "/store/a.root"})
	rd, ok := reply.(proto.Redirect)
	if !ok {
		t.Fatalf("reply = %#v", reply)
	}
	if rd.Addr != "srv1:data" {
		t.Fatalf("redirected to %s, want srv1:data", rd.Addr)
	}
	if elapsed := time.Since(start); elapsed > tFullDelay {
		t.Errorf("uncached resolve took %v — fast response did not engage", elapsed)
	}

	// The initial flood asked each server exactly once (queries may
	// still be in flight to the non-holders; wait for delivery).
	waitDeadline := time.Now().Add(5 * time.Second)
	for totalQueries(srvs) < 3 {
		if time.Now().After(waitDeadline) {
			t.Fatalf("only %d of 3 queries delivered", totalQueries(srvs))
		}
		time.Sleep(time.Millisecond)
	}

	// Second access is served from the cache: no further queries.
	reply = locate(t, net, "mgr:data", proto.Locate{Path: "/store/a.root"})
	if rd := reply.(proto.Redirect); rd.Addr != "srv1:data" {
		t.Fatalf("cached redirect to %s", rd.Addr)
	}
	time.Sleep(20 * time.Millisecond) // any stray query would land now
	for i, s := range srvs {
		if got := s.QueriesReceived(); got != 1 {
			t.Errorf("server %d received %d queries, want 1", i, got)
		}
	}
}

func totalQueries(ns []*Node) int64 {
	var sum int64
	for _, n := range ns {
		sum += n.QueriesReceived()
	}
	return sum
}

func TestLocateNonexistent(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	startServer(t, net, "srv0", "mgr:ctl", nil)
	waitChildren(t, mgr, 1)

	conn, _ := net.Dial("mgr:data")
	defer conn.Close()
	// First ask: full delay imposed (no server responds).
	reply := rpc(t, conn, proto.Locate{Path: "/ghost"})
	w, isWait := reply.(proto.Wait)
	if !isWait || w.Millis != uint32(tFullDelay/time.Millisecond) {
		t.Fatalf("first reply = %#v, want full-delay Wait", reply)
	}
	time.Sleep(tFullDelay + 20*time.Millisecond)
	// Retry after the deadline: definitive no.
	reply = rpc(t, conn, proto.Locate{Path: "/ghost"})
	if e, isErr := reply.(proto.Err); !isErr || e.Code != proto.ENoEnt {
		t.Fatalf("post-deadline reply = %#v, want ENoEnt", reply)
	}
}

func TestLocateUnexportedPath(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	startServer(t, net, "srv0", "mgr:ctl", nil, "/store")
	waitChildren(t, mgr, 1)
	reply := locate(t, net, "mgr:data", proto.Locate{Path: "/elsewhere/f"})
	if e, isErr := reply.(proto.Err); !isErr || e.Code != proto.ENoEnt {
		t.Fatalf("reply = %#v, want immediate ENoEnt (no export match)", reply)
	}
}

func TestCreateFlow(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	st0 := store.New(store.Config{})
	st1 := store.New(store.Config{})
	srv0 := startServer(t, net, "srv0", "mgr:ctl", st0)
	srv1 := startServer(t, net, "srv1", "mgr:ctl", st1)
	_ = srv0
	_ = srv1
	waitChildren(t, mgr, 2)

	reply := locate(t, net, "mgr:data", proto.Locate{Path: "/new.root", Create: true})
	rd, ok := reply.(proto.Redirect)
	if !ok {
		t.Fatalf("create locate = %#v", reply)
	}

	// Create the file at the chosen server.
	sconn, _ := net.Dial(rd.Addr)
	defer sconn.Close()
	op := rpc(t, sconn, proto.Open{Path: "/new.root", Create: true, Write: true})
	okMsg, isOK := op.(proto.OpenOK)
	if !isOK {
		t.Fatalf("open-create = %#v", op)
	}
	rpc(t, sconn, proto.Write{FH: okMsg.FH, Bytes: []byte("x")})
	rpc(t, sconn, proto.Close{FH: okMsg.FH})

	// A second client finds it without any wait (optimistic cache entry).
	conn, _ := net.Dial("mgr:data")
	defer conn.Close()
	reply = rpc(t, conn, proto.Locate{Path: "/new.root"})
	if rd2, isRd := reply.(proto.Redirect); !isRd || rd2.Addr != rd.Addr {
		t.Fatalf("post-create locate = %#v", reply)
	}
}

func TestSelectionFailsOverOnDisconnect(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	stA := store.New(store.Config{})
	stB := store.New(store.Config{})
	startServer(t, net, "srvA", "mgr:ctl", stA)
	srvB := startServer(t, net, "srvB", "mgr:ctl", stB)
	waitChildren(t, mgr, 2)
	stA.Put("/f", []byte("1"))
	stB.Put("/f", []byte("1"))

	// Warm the cache: both respond.
	reply := locate(t, net, "mgr:data", proto.Locate{Path: "/f"})
	if _, ok := reply.(proto.Redirect); !ok {
		t.Fatalf("warmup = %#v", reply)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, v, ok := mgr.Core().Cache().Fetch("/f", mgr.Core().Table().VmFor("/f"), 0)
		if ok && v.Vh.Count() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("both holders never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	// Take server B down; every subsequent resolve must go to A.
	srvB.Stop()
	deadline = time.Now().Add(5 * time.Second)
	for mgr.Core().Table().OnlineVec().Count() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("manager never noticed the disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		reply = locate(t, net, "mgr:data", proto.Locate{Path: "/f"})
		rd, ok := reply.(proto.Redirect)
		if !ok || rd.Addr != "srvA:data" {
			t.Fatalf("resolve %d after failover = %#v", i, reply)
		}
	}
}

func TestDeadlineSynchronizationSingleQueryStorm(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	stores := make([]*store.Store, 4)
	srvs := make([]*Node, 4)
	for i := range srvs {
		stores[i] = store.New(store.Config{})
		srvs[i] = startServer(t, net, fmt.Sprintf("srv%d", i), "mgr:ctl", stores[i])
	}
	waitChildren(t, mgr, 4)
	stores[2].Put("/hot", []byte("x"))

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply := locate(t, net, "mgr:data", proto.Locate{Path: "/hot"})
			if rd, ok := reply.(proto.Redirect); !ok || rd.Addr != "srv2:data" {
				errs <- fmt.Sprintf("reply = %#v", reply)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// The processing deadline must have collapsed the storm into one
	// query per server.
	deadline := time.Now().Add(5 * time.Second)
	for totalQueries(srvs) < 4 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let any duplicate land
	for i, s := range srvs {
		if got := s.QueriesReceived(); got != 1 {
			t.Errorf("server %d received %d queries, want 1 (deadline sync)", i, got)
		}
	}
}

func TestRefreshAvoidsFailingServer(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	stA := store.New(store.Config{})
	stB := store.New(store.Config{})
	startServer(t, net, "srvA", "mgr:ctl", stA)
	startServer(t, net, "srvB", "mgr:ctl", stB)
	waitChildren(t, mgr, 2)
	stA.Put("/f", []byte("1"))
	stB.Put("/f", []byte("1"))

	// Warm cache with both holders.
	locate(t, net, "mgr:data", proto.Locate{Path: "/f"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, v, ok := mgr.Core().Cache().Fetch("/f", mgr.Core().Table().VmFor("/f"), 0)
		if ok && v.Vh.Count() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("holders never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	// The file vanishes from A (deleted behind the cache's back).
	stA.Unlink("/f")
	// Client reports A as failing and asks for a refresh; it must be
	// vectored to B.
	reply := locate(t, net, "mgr:data", proto.Locate{Path: "/f", Refresh: true, Avoid: "srvA:data"})
	rd, ok := reply.(proto.Redirect)
	if !ok || rd.Addr != "srvB:data" {
		t.Fatalf("refresh resolve = %#v, want srvB:data", reply)
	}
}

func TestStagingFlowThroughManager(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	st := store.New(store.Config{StageDelay: 60 * time.Millisecond})
	startServer(t, net, "srv0", "mgr:ctl", st)
	waitChildren(t, mgr, 1)
	st.PutOffline("/tape.root", []byte("archived bits"))

	reply := locate(t, net, "mgr:data", proto.Locate{Path: "/tape.root"})
	rd, ok := reply.(proto.Redirect)
	if !ok || !rd.Pending {
		t.Fatalf("reply = %#v, want pending redirect", reply)
	}

	// Open at the server; it waits until staging completes.
	conn, _ := net.Dial(rd.Addr)
	defer conn.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r := rpc(t, conn, proto.Open{Path: "/tape.root"})
		if okMsg, isOK := r.(proto.OpenOK); isOK {
			d := rpc(t, conn, proto.Read{FH: okMsg.FH, N: 100}).(proto.Data)
			if string(d.Bytes) != "archived bits" {
				t.Fatalf("staged bytes = %q", d.Bytes)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("staging never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSupervisorTree(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	sup := startSupervisor(t, net, "sup", "mgr:ctl")
	st := store.New(store.Config{})
	startServer(t, net, "leaf", "sup:ctl", st)
	waitChildren(t, mgr, 1)
	waitChildren(t, sup, 1)
	st.Put("/deep/file", []byte("bottom"))

	// Manager redirects to the supervisor...
	reply := locate(t, net, "mgr:data", proto.Locate{Path: "/deep/file"})
	rd, ok := reply.(proto.Redirect)
	if !ok || rd.Addr != "sup:data" {
		t.Fatalf("manager reply = %#v, want supervisor", reply)
	}
	if rd.CtlAddr == "" {
		t.Error("redirect to a supervisor must carry its control address")
	}
	// ... which redirects to the leaf.
	reply = locate(t, net, rd.Addr, proto.Locate{Path: "/deep/file"})
	rd2, ok := reply.(proto.Redirect)
	if !ok || rd2.Addr != "leaf:data" {
		t.Fatalf("supervisor reply = %#v, want leaf", reply)
	}
	// The manager's cache now knows the supervisor subtree has it:
	// a second resolve issues no new queries anywhere.
	q1 := sup.QueriesReceived()
	locate(t, net, "mgr:data", proto.Locate{Path: "/deep/file"})
	if sup.QueriesReceived() != q1 {
		t.Error("cached resolve re-queried the supervisor")
	}
}

func TestServerReconnectSameIdentity(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	st := store.New(store.Config{})
	st.Put("/f", []byte("x"))
	srv, err := NewNode(NodeConfig{
		Name: "srv0", Role: proto.RoleServer, DataAddr: "srv0:data",
		Parents: []string{"mgr:ctl"}, Prefixes: []string{"/"},
		Net: net, Store: st, ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	waitChildren(t, mgr, 1)
	locate(t, net, "mgr:data", proto.Locate{Path: "/f"})

	srv.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Core().Table().OnlineVec().Count() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never noticed")
		}
		time.Sleep(time.Millisecond)
	}

	// Restart under the same identity within the drop window.
	srv2, err := NewNode(NodeConfig{
		Name: "srv0", Role: proto.RoleServer, DataAddr: "srv0:data",
		Parents: []string{"mgr:ctl"}, Prefixes: []string{"/"},
		Net: net, Store: st, ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Stop)
	deadline = time.Now().Add(5 * time.Second)
	for mgr.Core().Table().OnlineVec().Count() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("reconnect never completed")
		}
		time.Sleep(time.Millisecond)
	}
	// Cached location from before the bounce is still usable.
	reply := locate(t, net, "mgr:data", proto.Locate{Path: "/f"})
	if rd, ok := reply.(proto.Redirect); !ok || rd.Addr != "srv0:data" {
		t.Fatalf("post-reconnect resolve = %#v", reply)
	}
}

func TestPrepareWarmsCache(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	st := store.New(store.Config{})
	srv := startServer(t, net, "srv0", "mgr:ctl", st)
	waitChildren(t, mgr, 1)
	paths := []string{"/p/1", "/p/2", "/p/3"}
	for _, p := range paths {
		st.Put(p, []byte("x"))
	}

	conn, _ := net.Dial("mgr:data")
	defer conn.Close()
	start := time.Now()
	reply := rpc(t, conn, proto.Prepare{Paths: paths})
	if p, ok := reply.(proto.PrepareOK); !ok || p.Queued != 3 {
		t.Fatalf("prepare reply = %#v", reply)
	}
	if elapsed := time.Since(start); elapsed > tFullDelay {
		t.Errorf("prepare blocked for %v; must return immediately", elapsed)
	}
	// Background look-ups land; subsequent locates are cache hits.
	deadline := time.Now().Add(5 * time.Second)
	for srv.QueriesReceived() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("prepare never queried")
		}
		time.Sleep(time.Millisecond)
	}
	q := srv.QueriesReceived()
	for _, p := range paths {
		reply := locate(t, net, "mgr:data", proto.Locate{Path: p})
		if _, ok := reply.(proto.Redirect); !ok {
			t.Fatalf("post-prepare locate %s = %#v", p, reply)
		}
	}
	if srv.QueriesReceived() != q {
		t.Error("post-prepare locates re-queried the server")
	}
}

func TestStatAndUnlinkRedirectedAtManager(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, net, "mgr")
	st := store.New(store.Config{})
	st.Put("/f", []byte("abc"))
	startServer(t, net, "srv0", "mgr:ctl", st)
	waitChildren(t, mgr, 1)

	conn, _ := net.Dial("mgr:data")
	defer conn.Close()
	// Stat for an unknown file reports non-existence at the manager.
	time.Sleep(2 * tFullDelay) // let a first probe's deadline lapse
	rpc(t, conn, proto.Stat{Path: "/ghost"})
	time.Sleep(tFullDelay + 30*time.Millisecond)
	r := rpc(t, conn, proto.Stat{Path: "/ghost"})
	if s, ok := r.(proto.StatOK); !ok || s.Exists {
		t.Fatalf("stat ghost = %#v", r)
	}
	// Stat for a real file redirects to its holder.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r = rpc(t, conn, proto.Stat{Path: "/f"})
		if rd, ok := r.(proto.Redirect); ok {
			if rd.Addr != "srv0:data" {
				t.Fatalf("stat redirect = %#v", rd)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stat /f = %#v", r)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
