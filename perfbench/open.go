package main

// The open workloads: Open a 4 KiB file, read all of it, Close.
// open-warm draws Zipf-popular names whose locations setup warmed into
// the manager cache; open-cold uses each name once, so every op floods
// a query to all 64 servers and is released by the one Have.

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"scalla/internal/client"
)

const (
	// warmFiles is the open-warm namespace, every location warmed.
	warmFiles = 20000
	// coldClosedRate sizes the open-cold closed loop's names: enough for
	// 1.6× the rate the cell reached when the benchmark was written. The
	// phase ends early if they run out, so a name is never reused.
	coldClosedRate = 2000
	// warmers is how many concurrent Locates warm the manager cache.
	warmers = 64
	// traceSample: one traced op in traceSample is replayed layer by
	// layer, up to maxChains ops.
	traceSample = 8
	maxChains   = 250
)

// openRates are the traced run's open-loop rates in ops/s, about a
// quarter of the closed-loop rate each workload reached on a 2-CPU
// machine when the benchmark was written. At half that rate the p99 of
// two runs of the same code differed by up to 5×: the cell shares two
// CPUs with the load generator, and at that utilization any hiccup
// builds a queue. They are part of the workload definition: change
// them only together with the baseline.
var openRates = map[string]float64{
	"open-warm": 2000,
	"open-cold": 300,
}

// warmLocations resolves names [lo, hi) of ns through the manager with
// concurrent Locates and checks each lands on the file's server.
func warmLocations(c *cell, ns namespace, lo, hi int) error {
	cl := client.New(client.Config{Net: c.net, Managers: []string{c.mgrAddr()}})
	defer cl.Close()
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	errs := make([]error, warmers)
	for g := 0; g < warmers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				addr, err := cl.Locate(ns.name(i), false)
				if err == nil && addr != c.servers[ns.server(i, len(c.servers))].DataAddr() {
					err = fmt.Errorf("locate %s: got %s, file is on server %d", ns.name(i), addr, ns.server(i, len(c.servers)))
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	return nil
}

// prepareReplay gives the cell its replay namespace, half of it warm.
func prepareReplay(c *cell, seed int64) (namespace, error) {
	replay := newNamespace(seed, "replay", replayFiles)
	if err := c.preload(replay, smallFile); err != nil {
		return replay, err
	}
	return replay, warmLocations(c, replay, 0, replay.n/2)
}

type openRun struct {
	name    string
	cold    bool
	seed    int64
	seconds time.Duration
	workers int

	c         *cell
	replay    namespace
	ns        namespace
	closedCap int // cold: names for the closed-loop phase
	openCap   int // cold: names for the open-loop phase

	cn      *countingNet
	clients []*client.Client
	bufs    [][]byte // per worker: bytes read
	wants   [][]byte // per worker: expected bytes, for check

	// Traced phases only: the tracer, whether sampled ops are replayed,
	// one prober and one pending sampled op per worker, the chains
	// started so far, and the first replay error.
	tr        *tracer
	replaying bool
	probers   []*prober
	pending   []*sampledOp
	opIDs     atomic.Int64
	chainsRun atomic.Int64
	errMu     sync.Mutex
	replayErr error
}

// liveSpans are the IDs of a traced op's live client-call spans.
type liveSpans struct{ root, open, read, close int }

// sampledOp is a traced op kept for layer-by-layer replay.
type sampledOp struct {
	op    int
	chain int // 0, 1, ... in the order replays were claimed
	live  liveSpans
	item  int
}

// setup builds a fresh cell for the workload: replay files, then the
// workload's namespace (warm: preloaded and every location resolved;
// cold: preloaded only).
func (r *openRun) setup() (*cell, error) {
	c, err := startCell(cellServers)
	if err != nil {
		return nil, err
	}
	r.replay, err = prepareReplay(c, r.seed)
	if err == nil {
		if r.cold {
			// Room for an untraced run's closed loop and a traced run's
			// open loop, so set-up is the same in both.
			r.closedCap = int(coldClosedRate * r.seconds.Seconds())
			r.openCap = int(openRates[r.name]*r.seconds.Seconds()/2) + 1
			r.ns = newNamespace(r.seed, "cold", r.closedCap+r.openCap+2*maxChains)
			err = c.preload(r.ns, smallFile)
		} else {
			r.ns = newNamespace(r.seed, "warm", warmFiles)
			if err = c.preload(r.ns, smallFile); err == nil {
				err = warmLocations(c, r.ns, 0, r.ns.n)
			}
		}
	}
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (r *openRun) startClients() {
	r.cn = &countingNet{inner: r.c.net}
	for w := 0; w < r.workers; w++ {
		r.clients = append(r.clients, client.New(client.Config{
			Net: r.cn, Managers: []string{r.c.mgrAddr()}, RetrySeed: r.seed + int64(w)}))
		r.bufs = append(r.bufs, make([]byte, smallFile))
		r.wants = append(r.wants, make([]byte, smallFile))
		r.pending = append(r.pending, nil)
	}
}

func (r *openRun) closeClients() {
	for _, cl := range r.clients {
		cl.Close()
	}
}

// sources returns the closed- and open-loop op sources. Warm draws from
// one seeded Zipf sequence; cold hands out each name once, in order.
func (r *openRun) sources() (closed, open source) {
	if !r.cold {
		var mu sync.Mutex
		z := newZipfPicker(r.seed, r.ns.n)
		next := func() (int, bool) {
			mu.Lock()
			defer mu.Unlock()
			return z.next(), true
		}
		return next, next
	}
	var ci, oi atomic.Int64
	closed = func() (int, bool) {
		i := int(ci.Add(1)) - 1
		return i, i < r.closedCap
	}
	open = func() (int, bool) {
		i := int(oi.Add(1)) - 1
		return r.closedCap + i, i < r.openCap
	}
	return closed, open
}

// op is one measured open: Open, read the whole file, Close.
func (r *openRun) op(w, item int) error {
	name := r.ns.name(item)
	cl, buf := r.clients[w], r.bufs[w]
	t0 := time.Now()
	f, err := cl.Open(name)
	t1 := time.Now()
	if err != nil {
		return err
	}
	n, err := f.ReadAt(buf, 0)
	t2 := time.Now()
	if err == io.EOF {
		err = nil
	}
	if err == nil && n != len(buf) {
		err = fmt.Errorf("read %s: %d of %d bytes", name, n, len(buf))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	t3 := time.Now()
	if r.tr != nil && err == nil {
		r.traceOp(w, item, t0, t1, t2, t3)
	}
	return err
}

// after runs off the clock once an op succeeded: it verifies the bytes
// worker w just read against the seeded content and, in the traced
// phase, replays a sampled op one layer down while the other workers
// keep the cell loaded.
func (r *openRun) after(w, item int) bool {
	fillContent(contentKey(r.ns.seed, r.ns.name(item)), 0, r.wants[w])
	ok := bytes.Equal(r.wants[w], r.bufs[w])
	if s := r.pending[w]; s != nil {
		r.pending[w] = nil
		if err := r.replayOp(r.probers[w], *s); err != nil {
			r.errMu.Lock()
			if r.replayErr == nil {
				r.replayErr = err
			}
			r.errMu.Unlock()
		}
	}
	return ok
}

// traceOp records the op's root span and its three client calls and,
// while replaying, marks every traceSample-th op, up to maxChains, for
// replay.
func (r *openRun) traceOp(w, item int, t0, t1, t2, t3 time.Time) {
	op := int(r.opIDs.Add(1))
	var live liveSpans
	live.root = r.tr.record("client.op", op, 0, t0, t3)
	live.open = r.tr.record("client.open", op, live.root, t0, t1)
	live.read = r.tr.record("client.read", op, live.root, t1, t2)
	live.close = r.tr.record("client.close", op, live.root, t2, t3)
	if !r.replaying || op%traceSample != 0 {
		return
	}
	if k := int(r.chainsRun.Add(1)); k <= maxChains {
		r.pending[w] = &sampledOp{op: op, chain: k - 1, live: live, item: item}
	}
}

// replayOp replays one sampled op one layer down. A cold chain takes
// two fresh names from the tail of the namespace, so every layer it
// replays really floods.
func (r *openRun) replayOp(p *prober, s sampledOp) error {
	name := r.ns.name(s.item)
	srv := r.ns.server(s.item, len(r.c.servers))
	holder := r.c.servers[srv].DataAddr()
	name2, holder2 := name, holder
	if r.cold {
		i1 := r.closedCap + r.openCap + 2*s.chain
		i2 := i1 + 1
		srv = r.ns.server(i1, len(r.c.servers))
		name, holder = r.ns.name(i1), r.c.servers[srv].DataAddr()
		name2 = r.ns.name(i2)
		holder2 = r.c.servers[r.ns.server(i2, len(r.c.servers))].DataAddr()
	}
	if err := p.managerChain(s.op, s.live.open, name, holder, name2, holder2, r.cold); err != nil {
		return err
	}
	return p.holderChain(s.op, s.live, name, srv, contentKey(r.ns.seed, name))
}

// run measures the workload on the set-up cell. An untraced run is one
// closed loop, which gives every end-to-end metric. A traced run runs
// three shorter closed loops: untraced, with spans only (the two give
// the trace overhead), and with spans while sampled ops are replayed
// as they finish, until maxChains have been. It ends with the open loop
// at the fixed rate.
func (r *openRun) run(traced bool) (*result, error) {
	r.startClients()
	defer r.closeClients()
	closedSrc, openSrc := r.sources()
	rate := openRates[r.name]

	// Counters are read around the untraced closed loop, which the
	// layer figures and the flood and hit-ratio checks use, and at the
	// end, for the checks that cover the whole run.
	before := snapshotCounters(r.c, r.cn)
	tr := newTracer()
	var mid counters
	var closed, tracedClosed, replayed, open phase
	rss, err := withRSS(func() {
		d := r.seconds
		if traced {
			d = r.seconds / 4
		}
		closed = closedLoop(d, r.workers, closedSrc, r.op, r.after)
		mid = snapshotCounters(r.c, r.cn)
		if !traced {
			return
		}
		r.startTracing(tr)
		tracedClosed = closedLoop(d, r.workers, closedSrc, r.op, r.after)
		r.replaying = true
		replayed = closedLoop(d, r.workers, r.untilReplayed(closedSrc), r.op, r.after)
		r.replaying = false
		r.stopTracing()
		open = openLoop(r.seconds-2*d-replayed.Elapsed, rate, r.workers, openSrc, r.op, r.after)
	})
	if err != nil {
		return nil, err
	}
	after := snapshotCounters(r.c, r.cn)

	res := newResult()
	res.workload = r.name
	res.rate = rate
	res.e2e["peak_rss_mb"] = rss
	for _, p := range []phase{closed, tracedClosed, replayed, open} {
		res.tally.add(p.Tally)
	}
	first := counterDelta{elapsed: mid.at.Sub(before.at), a: before, b: mid}
	res.checkCell(r.c, counterDelta{elapsed: after.at.Sub(before.at), a: before, b: after})
	r.checks(res, first, closed.Tally.Attempted)

	rates := windowRates(closed.Samples, closed.Elapsed)
	lat := summarize(closed.lats())
	res.phase("closed", median(rates), closed.GCs, lat, tailQ)
	res.e2e["ops_per_s"] = median(rates)
	res.e2e["op_p50_us"] = us(lat.P50)
	res.layer["op_p995_us"] = us(lat.P995)
	res.e2e["read_mb_s"] = median(rates) * smallFile / (1 << 20)
	res.e2e["cpu_us_per_op"] = closed.cpuPerOp()
	if !traced {
		return res, nil
	}

	tracedLat := summarize(tracedClosed.lats())
	res.phase("traced", median(windowRates(tracedClosed.Samples, tracedClosed.Elapsed)), tracedClosed.GCs, tracedLat, tailQ)
	res.traceOverheadPct = (us(tracedLat.P50)/us(lat.P50) - 1) * 100
	res.lines = append(res.lines, fmt.Sprintf("replay  n=%d ops, %d replayed in %v", len(replayed.Samples),
		min(r.chainsRun.Load(), maxChains), replayed.Elapsed.Round(time.Millisecond)))
	openLat := summarize(open.lats())
	res.phase("open", median(windowRates(open.Samples, open.Elapsed)), open.GCs, openLat, 0.99)
	res.open = &openLat
	res.genLate = open.Late
	res.addLayer(layerCounters(first, closed.Tally.Attempted))
	if r.replayErr != nil {
		res.fail("replay: %v", r.replayErr)
	}
	p := newProber(r.c, tr)
	defer p.close()
	appendAll, appendTail, err := p.battery(r.replay)
	if err != nil {
		res.fail("battery: %v", err)
	}
	res.addSpans(tr.snapshot(), appendAll, appendTail)
	return res, nil
}

// untilReplayed stops next once maxChains sampled ops have been claimed
// for replay, so the replay phase takes no more names than it needs.
func (r *openRun) untilReplayed(next source) source {
	return func() (int, bool) {
		if r.chainsRun.Load() >= maxChains {
			return 0, false
		}
		return next()
	}
}

// startTracing switches the workers' spans on.
func (r *openRun) startTracing(tr *tracer) {
	r.tr = tr
	r.probers = make([]*prober, r.workers)
	for w := range r.probers {
		r.probers[w] = newProber(r.c, tr)
	}
}

func (r *openRun) stopTracing() {
	r.tr = nil
	for _, p := range r.probers {
		p.close()
	}
}

// checks are the output-correctness checks of an open workload over
// the untraced closed loop; a failed check fails the run.
func (r *openRun) checks(res *result, d counterDelta, ops int64) {
	cs := layerCounters(d, ops)
	if r.cold {
		misses := d.b.cache.Misses - d.a.cache.Misses
		if misses != ops {
			res.fail("open-cold: manager cache misses %d != cold ops %d (an op did not flood)", misses, ops)
		}
	} else if hr := cs["cache.hit_ratio"]; hr < 0.99 {
		res.fail("open-warm: manager cache hit ratio %.4f < 0.99", hr)
	}
}
