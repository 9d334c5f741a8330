package main

// Layer probes for the traced run: direct calls into one layer's public
// functions, timed as spans. Chains replay a sampled op one layer down
// (children of the op's root span, for self times); the battery times
// each layer alone on the cell's replay files, identically on every
// workload, for the per-layer p50s.

import (
	"bytes"
	"fmt"
	"time"

	"scalla/internal/cmsd"
	"scalla/internal/mux"
	"scalla/internal/proto"
	"scalla/internal/store"
	"scalla/internal/transport"
)

// replayFiles is the size of every cell's replay namespace: the first
// half is warmed into the manager cache in setup, the second half is
// never touched before the battery resolves it cold.
const replayFiles = 1024

const (
	smallFile = 4 << 10  // open workloads' file size
	chunk     = 64 << 10 // stream workload's call size
	bigFile   = 32 << 20 // stream workload's file size
)

const callTimeout = 15 * time.Second

type prober struct {
	c     *cell
	tr    *tracer
	pool  *mux.Pool
	pings map[string]transport.Conn
	buf   []byte
}

func newProber(c *cell, tr *tracer) *prober {
	return &prober{c: c, tr: tr, pool: mux.NewPool(c.net, mux.Options{}),
		pings: make(map[string]transport.Conn), buf: make([]byte, chunk)}
}

func (p *prober) close() {
	p.pool.Close()
	for _, pc := range p.pings {
		pc.Close()
	}
}

// ping is one raw transport round trip: Send of a Ping frame and
// RecvFrame of the Pong, on a connection used for nothing else.
func (p *prober) ping(addr string) error {
	pc, ok := p.pings[addr]
	if !ok {
		var err error
		if pc, err = p.c.net.Dial(addr); err != nil {
			return err
		}
		p.pings[addr] = pc
	}
	f := proto.MarshalFrameStream(proto.Ping{}, 1)
	err := pc.Send(f.Bytes())
	f.Release()
	if err != nil {
		return err
	}
	fr, err := transport.RecvFrame(pc)
	if err != nil {
		return err
	}
	m, err := proto.Unmarshal(fr.Bytes())
	fr.Release()
	if err != nil {
		return err
	}
	if _, ok := m.(proto.Pong); !ok {
		return fmt.Errorf("ping %s: got %T", addr, m)
	}
	return nil
}

func (p *prober) call(addr string, m proto.Message) (proto.Message, error) {
	mc, err := p.pool.Get(addr)
	if err != nil {
		return nil, err
	}
	return mc.Call(m, callTimeout)
}

// locateAt asks the manager to open name over a bare mux connection
// and checks the redirect names the expected holder.
func (p *prober) locateAt(name, holder string) error {
	reply, err := p.call(p.c.mgrAddr(), proto.Open{Path: name})
	if err != nil {
		return err
	}
	rd, ok := reply.(proto.Redirect)
	if !ok {
		return fmt.Errorf("manager open %s: got %T", name, reply)
	}
	if rd.Addr != holder {
		return fmt.Errorf("manager open %s: redirected to %s, file is on %s", name, rd.Addr, holder)
	}
	return nil
}

// resolve runs the manager's Core.Resolve in process.
func (p *prober) resolve(name, holder string) error {
	out := p.c.mgr.Core().Resolve(cmsd.Request{Path: name})
	if out.Kind != cmsd.KindRedirect || out.Addr != holder {
		return fmt.Errorf("resolve %s: outcome %d to %q, file is on %s", name, out.Kind, out.Addr, holder)
	}
	return nil
}

// fetch times the manager's Cache.Fetch in process; name must be live.
func (p *prober) fetch(op, parent int, name string) error {
	t := p.c.mgr.Core().Table()
	vm, off := t.VmFor(name), t.OfflineVec()
	var ok bool
	p.tr.timedNoErr("cache.fetch", op, parent, func() { _, _, ok = p.c.mgr.Core().Cache().Fetch(name, vm, off) })
	if !ok {
		return fmt.Errorf("cache fetch %s: not cached", name)
	}
	return nil
}

// holderTimes bounds the three calls of holderSteps.
type holderTimes struct{ openStart, openEnd, readEnd, closeEnd time.Time }

// holderSteps opens name at its holder, reads `n` bytes at off, checks
// them against want and closes it, over a bare mux connection. It
// returns the three call windows so a chain can hang the layer below
// under each.
func (p *prober) holderSteps(name, holder string, off int64, n int, want []byte) (holderTimes, error) {
	var ht holderTimes
	ht.openStart = time.Now()
	reply, err := p.call(holder, proto.Open{Path: name})
	ht.openEnd = time.Now()
	if err != nil {
		return ht, err
	}
	ok, isOK := reply.(proto.OpenOK)
	if !isOK {
		return ht, fmt.Errorf("holder open %s: got %T", name, reply)
	}
	reply, err = p.call(holder, proto.Read{FH: ok.FH, Off: off, N: uint32(n)})
	ht.readEnd = time.Now()
	if err != nil {
		return ht, err
	}
	d, isData := reply.(proto.Data)
	if !isData {
		return ht, fmt.Errorf("holder read %s: got %T", name, reply)
	}
	if !bytes.Equal(d.Bytes, want) {
		return ht, fmt.Errorf("holder read %s at %d: content mismatch", name, off)
	}
	reply, err = p.call(holder, proto.Close{FH: ok.FH})
	ht.closeEnd = time.Now()
	if err != nil {
		return ht, err
	}
	if _, isOK := reply.(proto.CloseOK); !isOK {
		return ht, fmt.Errorf("holder close %s: got %T", name, reply)
	}
	return ht, nil
}

// storeRead times an in-process ReadAtInto at the holder's store.
func (p *prober) storeRead(span string, op, parent int, holder int, name string, off int64, n int) error {
	var err error
	var got int
	p.tr.timedNoErr(span, op, parent, func() { got, _, err = p.c.stores[holder].ReadAtInto(name, off, p.buf[:n]) })
	if err == nil && got != n {
		err = fmt.Errorf("store read %s: %d of %d bytes", name, got, n)
	}
	return err
}

// pingSpans records k raw pings to addr under parent.
func (p *prober) pingSpans(addr string, op, parent, k int) error {
	for i := 0; i < k; i++ {
		if _, err := p.tr.timed("transport.ping", op, parent, func() error { return p.ping(addr) }); err != nil {
			return err
		}
	}
	return nil
}

// holderChain replays the holder side of one small-file op under the
// op's live client calls: the holder Open under client.open, the Read
// of the whole file under client.read and the Close under
// client.close, each with one raw ping, and the store read under the
// Read.
func (p *prober) holderChain(op int, live liveSpans, name string, server int, key uint64) error {
	holder := p.c.servers[server].DataAddr()
	want := make([]byte, smallFile)
	fillContent(key, 0, want)
	ht, err := p.holderSteps(name, holder, 0, smallFile, want)
	if err != nil {
		return err
	}
	steps := []struct {
		name       string
		parent     int
		start, end time.Time
	}{
		{"xrd.open", live.open, ht.openStart, ht.openEnd},
		{"mux.call", live.read, ht.openEnd, ht.readEnd},
		{"xrd.close", live.close, ht.readEnd, ht.closeEnd},
	}
	for _, st := range steps {
		id := p.tr.record(st.name, op, st.parent, st.start, st.end)
		if st.name == "mux.call" {
			if err := p.storeRead("store.read4k", op, id, server, name, 0, smallFile); err != nil {
				return err
			}
		}
		if err := p.pingSpans(holder, op, id, 1); err != nil {
			return err
		}
	}
	return nil
}

// openAt opens name at holder over a bare mux connection.
func (p *prober) openAt(name, holder string) (uint64, error) {
	reply, err := p.call(holder, proto.Open{Path: name})
	if err != nil {
		return 0, err
	}
	ok, isOK := reply.(proto.OpenOK)
	if !isOK {
		return 0, fmt.Errorf("open %s at %s: got %T", name, holder, reply)
	}
	return ok.FH, nil
}

// managerChain replays the manager side of client.open: the mux Open at
// the manager (name1), then in process Core.Resolve (name2) and
// Cache.Fetch of the now-live name2, and a raw ping of the manager.
// Warm chains pass one cached name twice; cold chains pass two fresh
// names so each layer really floods.
func (p *prober) managerChain(op, parent int, name1, holder1, name2, holder2 string, cold bool) error {
	mc, err := p.tr.timed("mux.manager_call", op, parent, func() error { return p.locateAt(name1, holder1) })
	if err != nil {
		return err
	}
	span := "cmsd.resolve_warm"
	if cold {
		span = "cmsd.resolve_cold"
	}
	rs, err := p.tr.timed(span, op, mc, func() error { return p.resolve(name2, holder2) })
	if err != nil {
		return err
	}
	if err := p.fetch(op, rs, name2); err != nil {
		return err
	}
	return p.pingSpans(p.c.mgrAddr(), op, mc, 1)
}

// streamChain replays one sampled 64 KiB stream read at the holder: a
// mux Read over a handle opened for the replay, the store read under it
// and a raw ping.
func (p *prober) streamChain(op, root int, name string, server int, fh uint64, off int64, want []byte) error {
	holder := p.c.servers[server].DataAddr()
	var d proto.Data
	rd, err := p.tr.timed("mux.call64k", op, root, func() error {
		reply, err := p.call(holder, proto.Read{FH: fh, Off: off, N: uint32(len(want))})
		if err != nil {
			return err
		}
		var ok bool
		if d, ok = reply.(proto.Data); !ok {
			return fmt.Errorf("stream replay read: got %T", reply)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(d.Bytes, want) {
		return fmt.Errorf("stream replay read %s at %d: content mismatch", name, off)
	}
	if err := p.storeRead("store.read64k", op, rd, server, name, off, len(want)); err != nil {
		return err
	}
	return p.pingSpans(holder, op, rd, 1)
}

// Battery sizes: enough samples for a stable median, small enough to
// keep the traced run's extra time near two seconds.
const (
	batteryResolveWarm = 400
	batteryResolveCold = 200
	batteryFetch       = 2000
	batteryCalls       = 1000
	batteryOpenClose   = 300
	batteryBuilds      = 2
	tailAppends        = 16 // appends counted as "at 32 MiB" per build
)

// battery times each layer alone on the replay namespace and a scratch
// store. Its spans have no op and no parent.
func (p *prober) battery(replay namespace) (appendAll, appendTail []time.Duration, err error) {
	half := replay.n / 2
	holderOf := func(i int) string { return p.c.servers[replay.server(i, len(p.c.servers))].DataAddr() }
	for k := 0; k < batteryResolveWarm; k++ {
		i := k % half
		h := holderOf(i)
		if _, err := p.tr.timed("cmsd.resolve_warm", 0, 0, func() error { return p.resolve(replay.name(i), h) }); err != nil {
			return nil, nil, err
		}
	}
	for k := 0; k < batteryResolveCold; k++ {
		i := half + k
		h := holderOf(i)
		if _, err := p.tr.timed("cmsd.resolve_cold", 0, 0, func() error { return p.resolve(replay.name(i), h) }); err != nil {
			return nil, nil, err
		}
	}
	for k := 0; k < batteryFetch; k++ {
		if err := p.fetch(0, 0, replay.name(k%half)); err != nil {
			return nil, nil, err
		}
	}
	// mux.call: lock-step 4 KiB reads on one open handle at a holder.
	name := replay.name(0)
	holder := holderOf(0)
	want := make([]byte, smallFile)
	fillContent(contentKey(replay.seed, name), 0, want)
	fh, err := p.openAt(name, holder)
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < batteryCalls; k++ {
		var got []byte
		if _, err := p.tr.timed("mux.call", 0, 0, func() error {
			r, err := p.call(holder, proto.Read{FH: fh, Off: 0, N: smallFile})
			if d, isData := r.(proto.Data); isData {
				got = d.Bytes
			}
			return err
		}); err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(got, want) {
			return nil, nil, fmt.Errorf("battery read %s: content mismatch", name)
		}
	}
	if _, err := p.call(holder, proto.Close{FH: fh}); err != nil {
		return nil, nil, err
	}
	for k := 0; k < batteryOpenClose; k++ {
		ht, err := p.holderSteps(name, holder, 0, smallFile, want)
		if err != nil {
			return nil, nil, err
		}
		p.tr.record("xrd.open_close", 0, 0, ht.openStart,
			ht.openStart.Add(ht.openEnd.Sub(ht.openStart)+ht.closeEnd.Sub(ht.readEnd)))
	}
	for k := 0; k < batteryCalls; k++ {
		if err := p.pingSpans(holder, 0, 0, 1); err != nil {
			return nil, nil, err
		}
	}
	return p.storeBattery(replay.seed)
}

// storeBattery times the in-memory store alone on a scratch store:
// 64 KiB ReadAtInto over a 32 MiB file, and 64 KiB WriteAt appends that
// grow a file from empty to 32 MiB, the stream writer's offsets.
func (p *prober) storeBattery(seed int64) (appendAll, appendTail []time.Duration, err error) {
	st := store.New(store.Config{})
	src := make([]byte, bigFile)
	fillContent(contentKey(seed, "/scratch/read"), 0, src)
	if err := st.Put("/scratch/read", src); err != nil {
		return nil, nil, err
	}
	buf := make([]byte, chunk)
	for off := int64(0); off < bigFile; off += chunk {
		var err error
		p.tr.timedNoErr("store.read64k", 0, 0, func() { _, _, err = st.ReadAtInto("/scratch/read", off, buf) })
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(buf, src[off:off+chunk]) {
			return nil, nil, fmt.Errorf("store battery read at %d: content mismatch", off)
		}
	}
	for b := 0; b < batteryBuilds; b++ {
		path := fmt.Sprintf("/scratch/append%d", b)
		if err := st.Create(path); err != nil {
			return nil, nil, err
		}
		for off := int64(0); off < bigFile; off += chunk {
			t0 := time.Now()
			_, err := st.WriteAt(path, off, src[off:off+chunk])
			d := time.Since(t0)
			if err != nil {
				return nil, nil, err
			}
			appendAll = append(appendAll, d)
			if off >= bigFile-tailAppends*chunk {
				appendTail = append(appendTail, d)
			}
		}
		got, _, err := st.ReadAt(path, 0, bigFile)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(got, src) {
			return nil, nil, fmt.Errorf("store battery %s: appended content mismatch", path)
		}
		if err := st.Unlink(path); err != nil {
			return nil, nil, err
		}
	}
	return appendAll, appendTail, nil
}
