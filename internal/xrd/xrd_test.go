package xrd

import (
	"testing"
	"time"

	"scalla/internal/mux"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
	"scalla/internal/vclock"
)

// rig builds a server over an in-process network and returns a dialed
// client connection plus the store.
func rig(t *testing.T, cfg Config) (transport.Conn, *store.Store) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = store.New(store.Config{StageDelay: 20 * time.Millisecond, Clock: vclock.Real()})
	}
	n := transport.NewInProc(transport.InProcConfig{})
	l, err := n.Listen("xrd")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cfg)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })
	conn, err := n.Dial("xrd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, cfg.Store
}

func rpc(t *testing.T, c transport.Conn, m proto.Message) proto.Message {
	t.Helper()
	if err := c.Send(proto.Marshal(m)); err != nil {
		t.Fatal(err)
	}
	frame, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := proto.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestOpenReadClose(t *testing.T) {
	conn, st := rig(t, Config{})
	st.Put("/f", []byte("hello world"))

	r := rpc(t, conn, proto.Open{Path: "/f"})
	ok, isOK := r.(proto.OpenOK)
	if !isOK || ok.Size != 11 {
		t.Fatalf("open reply = %#v", r)
	}

	r = rpc(t, conn, proto.Read{FH: ok.FH, Off: 6, N: 100})
	data, isData := r.(proto.Data)
	if !isData || string(data.Bytes) != "world" || !data.EOF {
		t.Fatalf("read reply = %#v", r)
	}

	r = rpc(t, conn, proto.Close{FH: ok.FH})
	if _, isClosed := r.(proto.CloseOK); !isClosed {
		t.Fatalf("close reply = %#v", r)
	}
	// Reading a closed handle fails.
	r = rpc(t, conn, proto.Read{FH: ok.FH, Off: 0, N: 1})
	if e, isErr := r.(proto.Err); !isErr || e.Code != proto.EInval {
		t.Fatalf("read-after-close reply = %#v", r)
	}
}

func TestOpenMissingFile(t *testing.T) {
	conn, _ := rig(t, Config{})
	r := rpc(t, conn, proto.Open{Path: "/ghost"})
	if e, isErr := r.(proto.Err); !isErr || e.Code != proto.ENoEnt {
		t.Fatalf("reply = %#v", r)
	}
}

func TestCreateWriteReadBack(t *testing.T) {
	conn, _ := rig(t, Config{})
	r := rpc(t, conn, proto.Open{Path: "/new", Create: true})
	ok, isOK := r.(proto.OpenOK)
	if !isOK {
		t.Fatalf("create reply = %#v", r)
	}
	r = rpc(t, conn, proto.Write{FH: ok.FH, Off: 0, Bytes: []byte("data!")})
	if w, isW := r.(proto.WriteOK); !isW || w.N != 5 {
		t.Fatalf("write reply = %#v", r)
	}
	r = rpc(t, conn, proto.Read{FH: ok.FH, Off: 0, N: 10})
	if d, isD := r.(proto.Data); !isD || string(d.Bytes) != "data!" {
		t.Fatalf("readback reply = %#v", r)
	}

	// Exclusive create: a second create fails.
	r = rpc(t, conn, proto.Open{Path: "/new", Create: true})
	if e, isErr := r.(proto.Err); !isErr || e.Code != proto.EExist {
		t.Fatalf("duplicate create reply = %#v", r)
	}
}

func TestWriteOnReadOnlyHandleRefused(t *testing.T) {
	conn, st := rig(t, Config{})
	st.Put("/f", []byte("x"))
	ok := rpc(t, conn, proto.Open{Path: "/f"}).(proto.OpenOK)
	r := rpc(t, conn, proto.Write{FH: ok.FH, Off: 0, Bytes: []byte("y")})
	if e, isErr := r.(proto.Err); !isErr || e.Code != proto.EInval {
		t.Fatalf("reply = %#v", r)
	}
}

func TestReadOnlyServer(t *testing.T) {
	conn, st := rig(t, Config{ReadOnly: true})
	st.Put("/f", []byte("x"))
	if e, ok := rpc(t, conn, proto.Open{Path: "/c", Create: true}).(proto.Err); !ok || e.Code != proto.EIO {
		t.Error("create allowed on read-only server")
	}
	if e, ok := rpc(t, conn, proto.Open{Path: "/f", Write: true}).(proto.Err); !ok || e.Code != proto.EIO {
		t.Error("write-open allowed on read-only server")
	}
	if e, ok := rpc(t, conn, proto.Unlink{Path: "/f"}).(proto.Err); !ok || e.Code != proto.EIO {
		t.Error("unlink allowed on read-only server")
	}
	// Reads still fine.
	if _, ok := rpc(t, conn, proto.Open{Path: "/f"}).(proto.OpenOK); !ok {
		t.Error("read-open refused on read-only server")
	}
}

func TestStagingOpenWaitsThenSucceeds(t *testing.T) {
	conn, st := rig(t, Config{StageWaitMillis: 10})
	st.PutOffline("/tape", []byte("archived"))

	r := rpc(t, conn, proto.Open{Path: "/tape"})
	w, isWait := r.(proto.Wait)
	if !isWait || w.Millis != 10 {
		t.Fatalf("reply = %#v, want Wait{10}", r)
	}
	// Retry until online (stage delay 20ms).
	deadline := time.Now().Add(5 * time.Second)
	for {
		r = rpc(t, conn, proto.Open{Path: "/tape"})
		if ok, isOK := r.(proto.OpenOK); isOK {
			d := rpc(t, conn, proto.Read{FH: ok.FH, Off: 0, N: 100}).(proto.Data)
			if string(d.Bytes) != "archived" {
				t.Fatalf("staged content = %q", d.Bytes)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("file never came online")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTruncateHandle(t *testing.T) {
	conn, st := rig(t, Config{})
	st.Put("/f", []byte("0123456789"))
	ok := rpc(t, conn, proto.Open{Path: "/f", Write: true}).(proto.OpenOK)
	if _, isOK := rpc(t, conn, proto.Trunc{FH: ok.FH, Size: 4}).(proto.TruncOK); !isOK {
		t.Fatal("truncate failed")
	}
	d := rpc(t, conn, proto.Read{FH: ok.FH, N: 100}).(proto.Data)
	if string(d.Bytes) != "0123" {
		t.Fatalf("after truncate: %q", d.Bytes)
	}
	// Read-only handles may not truncate.
	ro := rpc(t, conn, proto.Open{Path: "/f"}).(proto.OpenOK)
	if e, isErr := rpc(t, conn, proto.Trunc{FH: ro.FH, Size: 0}).(proto.Err); !isErr || e.Code != proto.EInval {
		t.Error("read-only truncate allowed")
	}
	if e, isErr := rpc(t, conn, proto.Trunc{FH: 9999, Size: 0}).(proto.Err); !isErr || e.Code != proto.EInval {
		t.Error("bad handle truncate allowed")
	}
}

func TestStatAndUnlink(t *testing.T) {
	conn, st := rig(t, Config{})
	st.Put("/f", []byte("1234"))
	st.PutOffline("/t", []byte("56"))

	if s := rpc(t, conn, proto.Stat{Path: "/f"}).(proto.StatOK); !s.Exists || !s.Online || s.Size != 4 {
		t.Errorf("stat online = %+v", s)
	}
	if s := rpc(t, conn, proto.Stat{Path: "/t"}).(proto.StatOK); !s.Exists || s.Online || s.Size != 2 {
		t.Errorf("stat offline = %+v", s)
	}
	if s := rpc(t, conn, proto.Stat{Path: "/none"}).(proto.StatOK); s.Exists {
		t.Errorf("stat missing = %+v", s)
	}
	if _, ok := rpc(t, conn, proto.Unlink{Path: "/f"}).(proto.UnlinkOK); !ok {
		t.Error("unlink failed")
	}
	if s := rpc(t, conn, proto.Stat{Path: "/f"}).(proto.StatOK); s.Exists {
		t.Error("file survives unlink")
	}
}

func TestPrepareStagesOfflineFiles(t *testing.T) {
	conn, st := rig(t, Config{})
	st.PutOffline("/t1", []byte("1"))
	st.PutOffline("/t2", []byte("2"))
	st.Put("/on", []byte("3"))

	r := rpc(t, conn, proto.Prepare{Paths: []string{"/t1", "/t2", "/on", "/none"}})
	p, ok := r.(proto.PrepareOK)
	if !ok || p.Queued != 2 {
		t.Fatalf("prepare reply = %#v, want Queued=2", r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !(st.HasOnline("/t1") && st.HasOnline("/t2")) {
		if time.Now().After(deadline) {
			t.Fatal("prepare never staged the files")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPingReportsLoad(t *testing.T) {
	conn, st := rig(t, Config{})
	st.Put("/f", []byte("x"))
	rpc(t, conn, proto.Open{Path: "/f"})
	p, ok := rpc(t, conn, proto.Ping{}).(proto.Pong)
	if !ok {
		t.Fatal("no pong")
	}
	if p.Load == 0 {
		t.Error("load must count the open handle")
	}
	if p.Free == 0 {
		t.Error("free space missing")
	}
}

func TestHandlesCleanedUpOnDisconnect(t *testing.T) {
	n := transport.NewInProc(transport.InProcConfig{})
	l, _ := n.Listen("xrd")
	st := store.New(store.Config{})
	st.Put("/f", []byte("x"))
	srv := New(Config{Store: st})
	go srv.Serve(l)
	defer l.Close()

	conn, _ := n.Dial("xrd")
	conn.Send(proto.Marshal(proto.Open{Path: "/f"}))
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	if srv.Handles() != 1 {
		t.Fatalf("Handles = %d", srv.Handles())
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Handles() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("handles leaked after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInlineOpen checks which opens the server answers inline: a
// read-only open of an online file within the client's limit gets the
// file and no handle, counted as one open and one read; a write open,
// a larger file and an offline file behave as if Inline were 0.
func TestInlineOpen(t *testing.T) {
	conn, st := rig(t, Config{})
	st.Put("/f", []byte("hello world"))
	st.PutOffline("/tape", []byte("archived"))

	idle := rpc(t, conn, proto.Ping{}).(proto.Pong).Load // the ping itself
	r := rpc(t, conn, proto.Open{Path: "/f", Inline: 11})
	ok, isOK := r.(proto.OpenOK)
	if !isOK || ok.FH != 0 || ok.Size != 11 || !ok.EOF || string(ok.Bytes) != "hello world" {
		t.Fatalf("inline open reply = %#v", r)
	}
	if load := rpc(t, conn, proto.Ping{}).(proto.Pong).Load; load != idle {
		t.Fatalf("inline open holds server state: load %d, idle %d", load, idle)
	}

	for _, m := range []proto.Open{
		{Path: "/f", Inline: 10},              // one byte too small
		{Path: "/f", Write: true, Inline: 64}, // write opens never inline
	} {
		ok, isOK := rpc(t, conn, m).(proto.OpenOK)
		if !isOK || ok.FH == 0 || ok.Bytes != nil {
			t.Fatalf("%+v: reply = %#v, want a handle", m, ok)
		}
	}
	if _, isWait := rpc(t, conn, proto.Open{Path: "/tape", Inline: 64}).(proto.Wait); !isWait {
		t.Fatal("offline file was not answered with Wait")
	}
}

// TestCloseFreesConnectionHandles checks that close prunes the opening
// connection's handle set: 10 000 open/close pairs leave it empty, so a
// long-lived connection does not grow it, and a disconnect still drops
// the handles left open.
func TestCloseFreesConnectionHandles(t *testing.T) {
	const pairs = 10000
	st := store.New(store.Config{})
	st.Put("/f", []byte("x"))
	srv := New(Config{Store: st})
	own := handleSet{}
	for i := 0; i < pairs; i++ {
		ok, isOK := srv.dispatch(proto.Open{Path: "/f"}, mux.Responder{}, own).(proto.OpenOK)
		if !isOK {
			t.Fatal("open failed")
		}
		if _, isOK := srv.dispatch(proto.Close{FH: ok.FH}, mux.Responder{}, own).(proto.CloseOK); !isOK {
			t.Fatal("close failed")
		}
	}
	if len(own) != 0 || srv.Handles() != 0 {
		t.Fatalf("after %d open/close pairs: %d handles in the connection set, %d in the server", pairs, len(own), srv.Handles())
	}

	n := transport.NewInProc(transport.InProcConfig{})
	l, _ := n.Listen("xrd")
	go srv.Serve(l)
	defer l.Close()
	conn, err := n.Dial("xrd")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pairs; i++ {
		ok := rpc(t, conn, proto.Open{Path: "/f"}).(proto.OpenOK)
		rpc(t, conn, proto.Close{FH: ok.FH})
	}
	for i := 0; i < 3; i++ {
		rpc(t, conn, proto.Open{Path: "/f"})
	}
	if srv.Handles() != 3 {
		t.Fatalf("Handles = %d, want 3", srv.Handles())
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Handles() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("handles leaked after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBadFrameDropsConnection(t *testing.T) {
	conn, _ := rig(t, Config{})
	conn.Send([]byte{0xFF, 0xFF})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := conn.Recv(); err != nil {
			return // connection torn down, as expected
		}
		if time.Now().After(deadline) {
			t.Fatal("connection survived garbage frame")
		}
	}
}
