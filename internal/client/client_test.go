package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"scalla/internal/cache"
	"scalla/internal/cmsd"
	"scalla/internal/nsd"
	"scalla/internal/proto"
	"scalla/internal/respq"
	"scalla/internal/store"
	"scalla/internal/transport"
)

const (
	tFullDelay  = 150 * time.Millisecond
	tFastPeriod = 20 * time.Millisecond
)

type rig struct {
	net    transport.Network
	mgr    *cmsd.Node
	srvs   []*cmsd.Node
	stores []*store.Store
}

func buildCluster(t *testing.T, nServers int) *rig {
	t.Helper()
	net := transport.NewInProc(transport.InProcConfig{})
	return buildClusterOn(t, net, func(name string) string { return name }, nServers)
}

// buildClusterOn builds the cluster over net, listening on addr(name)
// for each of the in-process names buildCluster uses.
func buildClusterOn(t *testing.T, net transport.Network, addr func(string) string, nServers int) *rig {
	t.Helper()
	r := &rig{net: net}
	mgr, err := cmsd.NewNode(cmsd.NodeConfig{
		Name: "mgr", Role: proto.RoleManager,
		DataAddr: addr("mgr:data"), CtlAddr: addr("mgr:ctl"), Net: net,
		Core: cmsd.Config{
			Cache:     cache.Config{InitialBuckets: 89},
			Queue:     respq.Config{Period: tFastPeriod},
			FullDelay: tFullDelay,
		},
		PingInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	r.mgr = mgr
	for i := 0; i < nServers; i++ {
		st := store.New(store.Config{StageDelay: 50 * time.Millisecond})
		srv, err := cmsd.NewNode(cmsd.NodeConfig{
			Name: fmt.Sprintf("srv%d", i), Role: proto.RoleServer,
			DataAddr: addr(fmt.Sprintf("srv%d:data", i)),
			Parents:  []string{addr("mgr:ctl")}, Prefixes: []string{"/"},
			Net: net, Store: st,
			StageWaitMillis: 20, ReconnectDelay: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		r.srvs = append(r.srvs, srv)
		r.stores = append(r.stores, st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Core().Table().Count() < nServers {
		if time.Now().After(deadline) {
			t.Fatal("cluster never formed")
		}
		time.Sleep(time.Millisecond)
	}
	return r
}

func (r *rig) client(t *testing.T) *Client {
	cl := New(Config{Net: r.net, Managers: []string{r.mgr.DataAddr()}})
	t.Cleanup(cl.Close)
	return cl
}

func TestOpenReadCloseThroughManager(t *testing.T) {
	r := buildCluster(t, 3)
	r.stores[2].Put("/store/data.root", []byte("event data here"))
	cl := r.client(t)

	f, err := cl.Open("/store/data.root")
	if err != nil {
		t.Fatal(err)
	}
	if f.Server() != "srv2:data" {
		t.Errorf("served by %s", f.Server())
	}
	if f.Size() != 15 {
		t.Errorf("Size = %d", f.Size())
	}
	got, err := io.ReadAll(f)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "event data here" {
		t.Fatalf("read %q", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadFileWriteFileRoundTrip(t *testing.T) {
	r := buildCluster(t, 2)
	cl := r.client(t)
	payload := bytes.Repeat([]byte("scalla"), 1000)

	if err := cl.WriteFile("/out/result.bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/out/result.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(payload))
	}
}

func TestWriteFileTruncatesExisting(t *testing.T) {
	r := buildCluster(t, 1)
	cl := r.client(t)
	if err := cl.WriteFile("/f", []byte("a much longer original payload")); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("/f", []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/f")
	if err != nil || string(got) != "short" {
		t.Fatalf("rewrite = %q, %v (stale tail not truncated?)", got, err)
	}
}

func TestFileTruncate(t *testing.T) {
	r := buildCluster(t, 1)
	cl := r.client(t)
	f, err := cl.Create("/t")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("0123456789"))
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 3 {
		t.Errorf("Size = %d", f.Size())
	}
	f.Close()
	got, _ := cl.ReadFile("/t")
	if string(got) != "012" {
		t.Fatalf("content = %q", got)
	}
}

func TestOpenNotExist(t *testing.T) {
	r := buildCluster(t, 1)
	cl := r.client(t)
	_, err := cl.Open("/no/such/file")
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestCreateExclusive(t *testing.T) {
	r := buildCluster(t, 1)
	cl := r.client(t)
	f, err := cl.Create("/excl")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := cl.Create("/excl"); !errors.Is(err, ErrExist) {
		t.Fatalf("second create err = %v, want ErrExist", err)
	}
}

func TestRefreshRecoveryOnStaleLocation(t *testing.T) {
	r := buildCluster(t, 2)
	// Larger than inlineMax, so the open issues a handle for the read to
	// find stale.
	data := bytes.Repeat([]byte("replica "), inlineMax/8+1)
	r.stores[0].Put("/f", data)
	r.stores[1].Put("/f", data)
	cl := r.client(t)

	// Warm the cache so both holders are known.
	f, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, v, ok := r.mgr.Core().Cache().Fetch("/f", r.mgr.Core().Table().VmFor("/f"), 0)
		if ok && v.Vh.Count() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never both cached")
		}
		time.Sleep(time.Millisecond)
	}
	served := f.Server()

	// Delete the file from under the open handle on that server.
	for i, s := range r.srvs {
		if s.DataAddr() == served {
			r.stores[i].Unlink("/f")
		}
	}
	// The read hits ENoEnt at the stale holder and must transparently
	// recover via refresh to the surviving replica.
	buf := make([]byte, 16)
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		t.Fatalf("recovered read error: %v", err)
	}
	if !bytes.Equal(buf[:n], data[:len(buf)]) {
		t.Fatalf("recovered read = %q", buf[:n])
	}
	if f.Server() == served {
		t.Error("recovery did not move to the other holder")
	}
	f.Close()
}

func TestStatThroughRedirect(t *testing.T) {
	r := buildCluster(t, 2)
	r.stores[1].Put("/s", []byte("12345"))
	cl := r.client(t)
	st, err := cl.Stat("/s")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Exists || st.Size != 5 || !st.Online {
		t.Errorf("stat = %+v", st)
	}
	if _, err := cl.Stat("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("stat missing err = %v", err)
	}
}

func TestUnlink(t *testing.T) {
	r := buildCluster(t, 1)
	r.stores[0].Put("/doomed", []byte("x"))
	cl := r.client(t)
	if err := cl.Unlink("/doomed"); err != nil {
		t.Fatal(err)
	}
	if r.stores[0].Has("/doomed") {
		t.Error("file survived unlink")
	}
}

func TestPrepareThenBulkOpen(t *testing.T) {
	r := buildCluster(t, 1)
	var paths []string
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/bulk/%d", i)
		paths = append(paths, p)
		r.stores[0].PutOffline(p, []byte("cold"))
	}
	cl := r.client(t)
	if err := cl.Prepare(paths, false); err != nil {
		t.Fatal(err)
	}
	// Staging (50 ms each, parallel) plus one resolution delay; all
	// files then open without paying five separate full delays.
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range paths {
		for {
			f, err := cl.Open(p)
			if err == nil {
				f.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("prepared file %s never opened: %v", p, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestWaitBudgetExhausted(t *testing.T) {
	r := buildCluster(t, 1)
	cl := New(Config{
		Net: r.net, Managers: []string{"mgr:data"},
		WaitBudget: 10 * time.Millisecond, // below the 150 ms full delay
	})
	t.Cleanup(cl.Close)
	_, err := cl.Open("/cold/miss")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestManagerReplicaFailover(t *testing.T) {
	r := buildCluster(t, 1)
	r.stores[0].Put("/f", []byte("x"))
	cl := New(Config{
		Net:      r.net,
		Managers: []string{"deadmgr:data", "mgr:data"}, // first unreachable
	})
	t.Cleanup(cl.Close)
	f, err := cl.Open("/f")
	if err != nil {
		t.Fatalf("failover open: %v", err)
	}
	f.Close()
}

func TestListNamespace(t *testing.T) {
	r := buildCluster(t, 2)
	r.stores[0].Put("/ns/a", []byte("1"))
	r.stores[1].Put("/ns/b", []byte("22"))
	d := nsd.New(r.net, "srv0:data", "srv1:data")
	if err := d.Serve("nsd:addr"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	cl := r.client(t)
	entries, err := cl.ListNamespace("nsd:addr", "/ns")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Path != "/ns/a" || entries[1].Path != "/ns/b" {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestSeek(t *testing.T) {
	r := buildCluster(t, 1)
	r.stores[0].Put("/s", []byte("0123456789"))
	cl := r.client(t)
	f, err := cl.Open("/s")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if pos, err := f.Seek(4, io.SeekStart); err != nil || pos != 4 {
		t.Fatalf("SeekStart = %d, %v", pos, err)
	}
	buf := make([]byte, 3)
	if n, _ := f.Read(buf); n != 3 || string(buf) != "456" {
		t.Fatalf("read after seek = %q", buf[:n])
	}
	if pos, err := f.Seek(-2, io.SeekCurrent); err != nil || pos != 5 {
		t.Fatalf("SeekCurrent = %d, %v", pos, err)
	}
	if pos, err := f.Seek(-1, io.SeekEnd); err != nil || pos != 9 {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}
	if n, err := f.Read(buf); n != 1 || buf[0] != '9' || (err != nil && err != io.EOF) {
		t.Fatalf("read at end = %q, %v", buf[:n], err)
	}
	if _, err := f.Seek(-100, io.SeekStart); err == nil {
		t.Error("negative seek accepted")
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Error("bad whence accepted")
	}
	var _ io.ReadSeekCloser = f // compile-time conformance
}

func TestHopLimitExceeded(t *testing.T) {
	// A malicious/looping redirector that always redirects to itself.
	net := transport.NewInProc(transport.InProcConfig{})
	l, err := net.Listen("loop")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					frame, err := conn.Recv()
					if err != nil {
						return
					}
					sid := proto.StreamID(frame)
					conn.Send(proto.MarshalStream(proto.Redirect{Addr: "loop", CtlAddr: "loop"}, sid))
				}
			}()
		}
	}()
	cl := New(Config{Net: net, Managers: []string{"loop"}, MaxHops: 3})
	defer cl.Close()
	_, err = cl.Open("/f")
	if err == nil {
		t.Fatal("redirect loop not detected")
	}
}

func TestClientRedialsAfterConnDrop(t *testing.T) {
	r := buildCluster(t, 1)
	r.stores[0].Put("/f", []byte("x"))
	cl := r.client(t)
	if _, err := cl.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	// Sever every cached connection behind the client's back; the next
	// call must transparently redial.
	cl.Close()
	if _, err := cl.Stat("/f"); err != nil {
		t.Fatalf("post-drop stat: %v", err)
	}
}

func TestConcurrentClientsShareConnections(t *testing.T) {
	r := buildCluster(t, 2)
	for i := 0; i < 16; i++ {
		r.stores[i%2].Put(fmt.Sprintf("/c/%d", i), []byte("x"))
	}
	cl := r.client(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := cl.ReadFile(fmt.Sprintf("/c/%d", (g+i)%16)); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSequentialWriteRead(t *testing.T) {
	r := buildCluster(t, 1)
	cl := r.client(t)
	f, err := cl.Create("/seq")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := f.Write([]byte(fmt.Sprintf("part%d|", i))); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	got, err := cl.ReadFile("/seq")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "part0|part1|part2|part3|" {
		t.Fatalf("sequential content = %q", got)
	}
}
