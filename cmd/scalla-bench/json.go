package main

// The -json mode: a fixed micro-benchmark suite over the hot paths the
// observability PRs care about, written as machine-readable
// BENCH_<date>.json so successive runs can be diffed by tooling rather
// than eyeballed.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"scalla/internal/bitvec"
	"scalla/internal/cache"
	"scalla/internal/cmsd"
	"scalla/internal/metrics"
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
	"scalla/internal/vclock"
)

// benchPath generates HEP-style file names (deep shared prefixes plus
// a numeric tail), the key population the cache experiments use.
func benchPath(i int) string {
	return fmt.Sprintf("/store/data/Run2012%c/SingleMu/AOD/v%d/%04d/F%08d.root",
		'A'+rune(i%4), i%3+1, (i/1000)%100, i)
}

// BenchResult is one op's latency/throughput summary in the JSON file.
type BenchResult struct {
	Op        string  `json:"op"`
	N         int64   `json:"n"`
	P50US     float64 `json:"p50_us"`
	P90US     float64 `json:"p90_us"`
	P99US     float64 `json:"p99_us"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// MBPerSec is set only for data-plane throughput ops (read.seq.*).
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
	// HitRate and OriginOffload are set only for the proxy lifecycle
	// replay (proxy.lifecycle): steady-state open hit ratio and the
	// fraction of served bytes not pulled from origin.
	HitRate       float64 `json:"hit_rate,omitempty"`
	OriginOffload float64 `json:"origin_offload,omitempty"`
	// FramesPerWritev is set only for ops run over real sockets with
	// wire batching counters (rpc.pipelined.*.tcp): mean frames
	// coalesced into one vectored write syscall during the run.
	FramesPerWritev float64 `json:"frames_per_writev,omitempty"`
	// Depth, HopP50, and MsgsPerOp are set only for the tree-scaling
	// rows (depth.resolve.*): tree depth in node levels, median redirect
	// hops per resolve, and protocol messages per resolve. Their
	// latencies are simulated hop delays, not host time.
	Depth     int     `json:"depth,omitempty"`
	HopP50    int     `json:"hop_p50,omitempty"`
	MsgsPerOp float64 `json:"msgs_per_op,omitempty"`
}

// BenchFile is the top-level document written to BENCH_<date>.json.
type BenchFile struct {
	Date    string        `json:"date"`
	Go      string        `json:"go"`
	Quick   bool          `json:"quick"`
	Results []BenchResult `json:"results"`
}

// runJSONBench runs the suite and writes BENCH_<date>.json, returning
// the file name.
func runJSONBench(quick bool) (string, error) {
	n := 200_000
	if quick {
		n = 20_000
	}
	out := BenchFile{
		Date:  time.Now().UTC().Format("2006-01-02"),
		Go:    runtime.Version(),
		Quick: quick,
	}
	out.Results = append(out.Results, benchCacheAdd(n), benchCacheFetch(n))
	resolved, err := benchResolveCached(n / 10)
	if err != nil {
		return "", err
	}
	out.Results = append(out.Results, resolved, benchMarshal(n), benchMarshalFrame(n), benchSpan(n), benchFrameEncode(n/10))
	e2e, err := benchE2E(quick)
	if err != nil {
		return "", err
	}
	out.Results = append(out.Results, e2e...)
	tcp, err := benchE2ETCP(quick)
	if err != nil {
		return "", err
	}
	out.Results = append(out.Results, tcp...)
	disk, err := benchDisk(quick)
	if err != nil {
		return "", err
	}
	out.Results = append(out.Results, disk...)
	lifecycle, err := benchLifecycle(quick)
	if err != nil {
		return "", err
	}
	out.Results = append(out.Results, lifecycle...)
	surge, err := runSurge(quick, false)
	if err != nil {
		return "", err
	}
	out.Results = append(out.Results, surge...)
	depth, err := runDepth4(quick)
	if err != nil {
		return "", err
	}
	for _, r := range depth {
		out.Results = append(out.Results, BenchResult{
			Op:        fmt.Sprintf("depth.resolve.n%d.f%d", r.Servers, r.Fanout),
			N:         int64(r.Ops),
			P50US:     float64(r.LatP50.Nanoseconds()) / 1e3,
			P99US:     float64(r.LatP99.Nanoseconds()) / 1e3,
			Depth:     r.Depth,
			HopP50:    r.HopP50,
			MsgsPerOp: r.MsgsPerOp,
		})
	}

	name := fmt.Sprintf("BENCH_%s.json", out.Date)
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	return name, os.WriteFile(name, append(b, '\n'), 0o644)
}

// measure runs fn n times, sampling every op into a histogram, and
// summarizes it.
func measure(op string, n int, fn func(i int)) BenchResult {
	h := metrics.NewRegistry().Histogram(op)
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		h.Observe(time.Since(t0))
	}
	total := time.Since(start)
	s := h.Snapshot()
	return BenchResult{
		Op: op, N: s.Count,
		P50US:     float64(s.P50.Nanoseconds()) / 1e3,
		P90US:     float64(s.P90.Nanoseconds()) / 1e3,
		P99US:     float64(s.P99.Nanoseconds()) / 1e3,
		OpsPerSec: float64(n) / total.Seconds(),
	}
}

func benchCacheAdd(n int) BenchResult {
	c := cache.New(cache.Config{SyncSweep: true, Clock: vclock.NewFake(), InitialBuckets: 17711})
	return measure("cache.add", n, func(i int) {
		c.Add(benchPath(i), bitvec.Full, 0)
	})
}

func benchCacheFetch(n int) BenchResult {
	c := cache.New(cache.Config{SyncSweep: true, Clock: vclock.NewFake(), InitialBuckets: 17711})
	for i := 0; i < n; i++ {
		c.Add(benchPath(i), bitvec.Full, 0)
	}
	return measure("cache.fetch", n, func(i int) {
		c.Fetch(benchPath(i*7919%n), bitvec.Full, 0)
	})
}

// benchResolveCached measures the full manager round trip for a cached
// name: client → manager resolve (cache hit) → redirect, over the
// in-process transport.
func benchResolveCached(n int) (BenchResult, error) {
	net := transport.NewInProc(transport.InProcConfig{})
	mgr, err := cmsd.NewNode(cmsd.NodeConfig{
		Name: "mgr", Role: proto.RoleManager,
		DataAddr: "mgr:data", CtlAddr: "mgr:ctl", Net: net,
		Core:           cmsd.Config{FullDelay: time.Second},
		PingInterval:   50 * time.Millisecond,
		ReconnectDelay: 20 * time.Millisecond,
	})
	if err != nil {
		return BenchResult{}, err
	}
	if err := mgr.Start(); err != nil {
		return BenchResult{}, err
	}
	defer mgr.Stop()
	st := store.New(store.Config{})
	st.Put("/store/bench.root", []byte("x"))
	srv, err := cmsd.NewNode(cmsd.NodeConfig{
		Name: "srv0", Role: proto.RoleServer,
		DataAddr: "srv0:data", Parents: []string{"mgr:ctl"}, Prefixes: []string{"/"},
		Net: net, Store: st,
		ReconnectDelay: 20 * time.Millisecond,
	})
	if err != nil {
		return BenchResult{}, err
	}
	if err := srv.Start(); err != nil {
		return BenchResult{}, err
	}
	defer srv.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Core().Table().Count() < 1 {
		if time.Now().After(deadline) {
			return BenchResult{}, fmt.Errorf("bench cluster never formed")
		}
		time.Sleep(time.Millisecond)
	}

	conn, err := net.Dial("mgr:data")
	if err != nil {
		return BenchResult{}, err
	}
	defer conn.Close()
	// One uncached round trip to populate the cache (follows Waits).
	for {
		if err := conn.Send(proto.Marshal(proto.Locate{Path: "/store/bench.root"})); err != nil {
			return BenchResult{}, err
		}
		f, err := conn.RecvFrame()
		if err != nil {
			return BenchResult{}, err
		}
		m, err := proto.Unmarshal(f.Bytes())
		f.Release()
		if err != nil {
			return BenchResult{}, err
		}
		if w, ok := m.(proto.Wait); ok {
			time.Sleep(time.Duration(w.Millis) * time.Millisecond)
			continue
		}
		if _, ok := m.(proto.Redirect); !ok {
			return BenchResult{}, fmt.Errorf("warmup resolve: %#v", m)
		}
		break
	}

	var benchErr error
	res := measure("resolve.cached", n, func(i int) {
		if benchErr != nil {
			return
		}
		if err := conn.Send(proto.Marshal(proto.Locate{Path: "/store/bench.root"})); err != nil {
			benchErr = err
			return
		}
		f, err := conn.RecvFrame()
		if err != nil {
			benchErr = err
			return
		}
		f.Release()
	})
	return res, benchErr
}

// benchMarshal measures the allocating wire-encode path (one fresh
// buffer per frame).
func benchMarshal(n int) BenchResult {
	var q proto.Message = proto.Query{QID: 42, Path: benchPath(42), Hash: 0xdeadbeef}
	return measure("proto.marshal", n, func(i int) {
		_ = proto.Marshal(q)
	})
}

// benchMarshalFrame measures the pooled marshal/release cycle the send
// paths use; steady state is allocation-free.
func benchMarshalFrame(n int) BenchResult {
	var q proto.Message = proto.Query{QID: 42, Path: benchPath(42), Hash: 0xdeadbeef}
	return measure("proto.marshal_frame", n, func(i int) {
		f := proto.MarshalFrame(q)
		f.Release()
	})
}

func benchSpan(n int) BenchResult {
	tr := obs.NewTracer(512, nil)
	tr.SetEnabled(true)
	return measure("obs.span", n, func(i int) {
		sp := tr.Start("resolve", "/store/bench.root")
		sp.Event("cache.hit", "")
		sp.End("redirect srv0:data")
	})
}

func benchFrameEncode(n int) BenchResult {
	f := obs.Frame{
		V: obs.FrameVersion, Node: "mgr", Role: "manager", Seq: 1,
		Cache:   &obs.CacheSummary{Entries: 100_000, Buckets: 196_418},
		RespQ:   &obs.RespQSummary{Depth: 12},
		Cluster: &obs.ClusterSummary{Members: 64, Online: 64},
		Ops:     map[string]obs.OpSummary{"resolve.latency": {Count: 1000, P50US: 120}},
	}
	return measure("obs.frame_encode", n, func(i int) {
		if _, err := obs.ParseFrame(f.Encode()); err != nil {
			panic(err)
		}
	})
}
