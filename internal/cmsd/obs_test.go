package cmsd

// End-to-end observability test: a live cluster with tracing enabled
// and a summary stream pointed at a UDP collector — the same path
// `scalla-cli mon` consumes.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
)

func TestObservabilityEndToEnd(t *testing.T) {
	// A UDP socket standing in for the `scalla-cli mon` collector.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	sink, err := obs.NewUDPSink(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}

	cnet := transport.NewInProc(transport.InProcConfig{})
	tracer := obs.NewTracer(128, nil)
	tracer.SetEnabled(true)

	mgr := startNode(t, NodeConfig{
		Name: "mgr", Role: proto.RoleManager,
		DataAddr: "mgr:data", CtlAddr: "mgr:ctl",
		Net: cnet, Core: testCoreConfig(),
		PingInterval:   50 * time.Millisecond,
		ReconnectDelay: 20 * time.Millisecond,
		Tracer:         tracer,
		Summary:        sink,
		SummaryEvery:   30 * time.Millisecond,
	})
	stores := make([]*store.Store, 3)
	for i := range stores {
		stores[i] = store.New(store.Config{})
		startServer(t, cnet, fmt.Sprintf("srv%d", i), "mgr:ctl", stores[i])
	}
	waitChildren(t, mgr, 3)
	stores[2].Put("/store/obs.root", []byte("payload"))

	// One uncached resolve (query flood + fast response) and one cached.
	reply := locate(t, cnet, "mgr:data", proto.Locate{Path: "/store/obs.root"})
	if rd, ok := reply.(proto.Redirect); !ok || rd.Addr != "srv2:data" {
		t.Fatalf("uncached resolve: %#v", reply)
	}
	reply = locate(t, cnet, "mgr:data", proto.Locate{Path: "/store/obs.root"})
	if rd, ok := reply.(proto.Redirect); !ok || rd.Addr != "srv2:data" {
		t.Fatalf("cached resolve: %#v", reply)
	}

	admin := httptest.NewServer(mgr.AdminHandler())
	defer admin.Close()

	// /tracez must show complete resolve spans for both lookups.
	resp, err := http.Get(admin.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	var tz struct {
		Enabled bool             `json:"enabled"`
		Total   int64            `json:"total"`
		Spans   []obs.SpanRecord `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !tz.Enabled || tz.Total < 2 {
		t.Fatalf("tracez enabled=%v total=%d, want enabled with >=2 spans", tz.Enabled, tz.Total)
	}
	var sawMiss, sawHit bool
	for _, sp := range tz.Spans {
		if sp.Op != "resolve" || sp.Path != "/store/obs.root" {
			continue
		}
		if !strings.HasPrefix(sp.Outcome, "redirect srv2:data") {
			t.Fatalf("resolve span outcome = %q", sp.Outcome)
		}
		for _, ev := range sp.Events {
			switch ev.Kind {
			case "cache.miss":
				sawMiss = true
			case "cache.hit":
				sawHit = true
			}
		}
	}
	if !sawMiss || !sawHit {
		t.Fatalf("spans missing cache.miss/cache.hit events (miss=%v hit=%v): %+v", sawMiss, sawHit, tz.Spans)
	}

	// /statusz serves the same frame shape the stream carries.
	resp, err = http.Get(admin.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var sf obs.Frame
	err = json.NewDecoder(resp.Body).Decode(&sf)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sf.V != obs.FrameVersion || sf.Cache == nil || sf.Cache.Entries < 1 {
		t.Fatalf("statusz frame: %+v", sf)
	}
	// Per-shard entry counts surface on /statusz and must re-sum to the
	// aggregate, so stripe skew is observable.
	if len(sf.Cache.ShardEntries) == 0 {
		t.Fatalf("statusz frame missing shard entries: %+v", sf.Cache)
	}
	var shardSum int64
	for _, n := range sf.Cache.ShardEntries {
		shardSum += n
	}
	if shardSum != sf.Cache.Entries {
		t.Fatalf("shard entries sum %d != entries %d", shardSum, sf.Cache.Entries)
	}
	if sf.Cluster == nil || sf.Cluster.Members != 3 || sf.Cluster.Online != 3 {
		t.Fatalf("statusz cluster: %+v", sf.Cluster)
	}

	// The summary stream delivers valid JSON frames over UDP. Read until
	// one reflects the resolves above (early frames may predate them).
	buf := make([]byte, 64<<10)
	deadline := time.Now().Add(10 * time.Second)
	var f obs.Frame
	for {
		pc.SetReadDeadline(deadline)
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			t.Fatalf("no satisfying summary frame arrived: %v (last: %+v)", err, f)
		}
		f, err = obs.ParseFrame(buf[:n])
		if err != nil {
			t.Fatalf("stream emitted an unparseable frame: %v", err)
		}
		if f.Cache != nil && f.Cache.Entries >= 1 && f.Cluster != nil && f.Cluster.Members == 3 {
			break
		}
	}
	if f.Node != "mgr" || f.Role != "manager" || f.Seq == 0 {
		t.Fatalf("frame header: %+v", f)
	}
	if f.RespQ == nil {
		t.Fatal("frame missing respq section")
	}
	if f.Wire == nil || f.Wire.FramesOut == 0 || f.Wire.Dials == 0 {
		t.Fatalf("frame missing wire counters: %+v", f.Wire)
	}
	op, ok := f.Ops["resolve.latency"]
	if !ok || op.Count < 2 {
		t.Fatalf("frame ops: %+v", f.Ops)
	}
	if f.Counters["resolve.redirect"] < 2 {
		t.Fatalf("frame counters: %+v", f.Counters)
	}

	// And the one-liner mon prints from it names the node and cache.
	line := f.String()
	for _, want := range []string{"mgr/manager", "cache=", "members=3/3", "wire=", "resolve{n="} {
		if !strings.Contains(line, want) {
			t.Fatalf("mon line %q missing %q", line, want)
		}
	}
}

// TestServerFrameReportsDataPlane checks a server-role node's frame
// carries its xrd counters rather than redirector sections.
func TestServerFrameReportsDataPlane(t *testing.T) {
	cnet := transport.NewInProc(transport.InProcConfig{})
	mgr := startManager(t, cnet, "mgr")
	st := store.New(store.Config{})
	st.Put("/store/x", []byte("hello"))
	srv := startServer(t, cnet, "srv0", "mgr:ctl", st)
	waitChildren(t, mgr, 1)

	reply := locate(t, cnet, "mgr:data", proto.Locate{Path: "/store/x"})
	rd, ok := reply.(proto.Redirect)
	if !ok {
		t.Fatalf("reply = %#v", reply)
	}

	// Read the file from the data server so the data plane has traffic.
	conn, err := cnet.Dial(rd.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	open := rpc(t, conn, proto.Open{Path: "/store/x"}).(proto.OpenOK)
	data := rpc(t, conn, proto.Read{FH: open.FH, N: 5}).(proto.Data)
	if string(data.Bytes) != "hello" {
		t.Fatalf("read %q", data.Bytes)
	}

	f := srv.Frame()
	if f.Cache != nil || f.RespQ != nil {
		t.Fatalf("server frame has redirector sections: %+v", f)
	}
	if f.Data == nil || f.Data.Opens < 1 || f.Data.Reads < 1 || f.Data.BytesRead < 5 {
		t.Fatalf("server data section: %+v", f.Data)
	}
	if f.Cluster == nil || f.Cluster.ParentsUp != 1 {
		t.Fatalf("server parents_up: %+v", f.Cluster)
	}
	if !strings.Contains(f.String(), "handles=") {
		t.Fatalf("server mon line %q", f.String())
	}
}
