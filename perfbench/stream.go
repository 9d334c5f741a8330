package main

// The stream-rw workload: one reader streams whole 32 MiB files with
// 64 KiB Reads at the default readahead while one writer creates
// 32 MiB files with a write window of 4. Output names are prepared in
// setup and the setup waits out the verdict, so creates skip the full
// delay. Each output is checked off the clock, then unlinked.

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"scalla/internal/client"
)

const (
	streamInputs  = 2   // input files the reader cycles through
	streamOutputs = 512 // prepared output names, reused cyclically
	writeWindow   = 4
)

type streamRun struct {
	seed    int64
	seconds time.Duration

	c          *cell
	replay     namespace
	inputs     []streamFile
	outputs    namespace
	preparedAt time.Time

	cn *countingNet
	// Traced phases only: the tracer, whether the reader replays sampled
	// reads, and the last read's op ID, unique across phases.
	tr        *tracer
	replaying bool
	opID      int
}

type streamFile struct {
	name   string
	server int
	data   []byte
}

// setup builds a cell with the replay files, the reader's inputs on
// servers the writer's creates will not land on, and the prepared
// output names.
func (s *streamRun) setup() (*cell, error) {
	c, err := startCell(cellServers)
	if err != nil {
		return nil, err
	}
	if err := s.populate(c); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (s *streamRun) populate(c *cell) error {
	var err error
	if s.replay, err = prepareReplay(c, s.seed); err != nil {
		return err
	}
	// Creates go to the manager's write selection: with equal free
	// space that is the member in slot 0. Inputs go next to it, so the
	// placement is the same on every run.
	target, err := c.serverAt(0)
	if err != nil {
		return err
	}
	in := newNamespace(s.seed, "stream-in", streamInputs)
	s.inputs = nil
	for i := 0; i < in.n; i++ {
		f := streamFile{name: in.name(i), server: (target + 1 + i) % len(c.servers), data: make([]byte, bigFile)}
		fillContent(contentKey(s.seed, f.name), 0, f.data)
		if err := c.stores[f.server].Put(f.name, f.data); err != nil {
			return err
		}
		s.inputs = append(s.inputs, f)
	}
	cl := client.New(client.Config{Net: c.net, Managers: []string{c.mgrAddr()}})
	defer cl.Close()
	for _, f := range s.inputs {
		addr, err := cl.Locate(f.name, false)
		if err != nil {
			return fmt.Errorf("warm %s: %w", f.name, err)
		}
		if addr != c.servers[f.server].DataAddr() {
			return fmt.Errorf("warm %s: located at %s, file is on server %d", f.name, addr, f.server)
		}
	}
	s.outputs = newNamespace(s.seed, "stream-out", streamOutputs)
	names := make([]string, s.outputs.n)
	for i := range names {
		names[i] = s.outputs.name(i)
	}
	if err := cl.Prepare(names, true); err != nil {
		return fmt.Errorf("prepare outputs: %w", err)
	}
	s.preparedAt = time.Now()
	return nil
}

// awaitVerdict sleeps until the prepared names' full delay has passed,
// so the manager knows they do not exist and creates go straight to a
// target. The wait is protocol time, not set-up work.
func (s *streamRun) awaitVerdict() {
	if d := time.Until(s.preparedAt.Add(fullDelay + 500*time.Millisecond)); d > 0 {
		time.Sleep(d)
	}
}

// direction is the writer's record: per-call latencies, bytes verified
// and time spent inside client calls.
type direction struct {
	log   workerLog
	bytes int64
	busy  time.Duration
}

func (d *direction) rate() float64 {
	if d.busy <= 0 {
		return 0
	}
	return float64(d.bytes) / (1 << 20) / d.busy.Seconds()
}

// reader streams the inputs until end, verifying every chunk.
// In a traced phase it records a span per call and, while replaying,
// replays every traceSample-th read, up to maxChains, one layer down
// as soon as the read returns.
func (s *streamRun) reader(start, end time.Time, rd *workerLog, replayErr *error) {
	cl := client.New(client.Config{Net: s.cn, Managers: []string{s.c.mgrAddr()}, RetrySeed: s.seed})
	defer cl.Close()
	var rp *replayer
	if s.replaying {
		rp = &replayer{p: newProber(s.c, s.tr), fhs: make(map[int]uint64)}
		defer rp.p.close()
	}
	buf := make([]byte, chunk)
	for k := 0; time.Now().Before(end); k++ {
		in := k % len(s.inputs)
		f := s.inputs[in]
		t0 := time.Now()
		fh, err := cl.Open(f.name)
		t1 := time.Now()
		if s.tr != nil && err == nil {
			s.tr.record("client.open", 0, 0, t0, t1)
		}
		if err != nil {
			rd.record(time.Since(start), 0, err, false)
			continue
		}
		for off := int64(0); off < bigFile && time.Now().Before(end); {
			t0 := time.Now()
			n, err := fh.Read(buf)
			t1 := time.Now()
			lat := t1.Sub(t0)
			if err == io.EOF && n > 0 {
				err = nil
			}
			if err == nil && (n != chunk || off+int64(n) > bigFile) {
				err = fmt.Errorf("read %s at %d: %d bytes", f.name, off, n)
			}
			mismatch := err == nil && !bytes.Equal(buf[:n], f.data[off:off+int64(n)])
			rd.record(t1.Sub(start), lat, err, mismatch)
			if err != nil || mismatch {
				break
			}
			if s.tr != nil {
				s.opID++
				root := s.tr.record("client.read64k", s.opID, 0, t0, t1)
				if rp != nil && s.opID%traceSample == 0 && rp.done < maxChains && *replayErr == nil {
					rp.done++
					*replayErr = s.replayRead(rp, s.opID, root, in, off)
				}
			}
			off += int64(n)
		}
		if err := fh.Close(); err != nil {
			rd.record(time.Since(start), 0, err, false)
		}
	}
}

// writer creates outputs until end. Content generation, the read-back
// check and the unlink are off the clock; a file cut short by the end
// of the run is closed and checked up to what was written.
func (s *streamRun) writer(start, end time.Time, wr *direction, maxCreate *time.Duration) {
	cl := client.New(client.Config{Net: s.cn, Managers: []string{s.c.mgrAddr()},
		WriteWindow: writeWindow, RetrySeed: s.seed + 1})
	defer cl.Close()
	data := make([]byte, bigFile)
	for j := 0; time.Now().Before(end); j++ {
		name := s.outputs.name(j % s.outputs.n)
		fillContent(contentKey(s.seed, name), 0, data)
		t0 := time.Now()
		f, err := cl.Create(name)
		d := time.Since(t0)
		wr.busy += d
		if d > *maxCreate {
			*maxCreate = d
		}
		if err != nil {
			wr.log.record(time.Since(start), 0, err, false)
			continue
		}
		var written int64
		for written < bigFile && time.Now().Before(end) {
			t0 := time.Now()
			_, err = f.Write(data[written : written+chunk])
			t1 := time.Now()
			lat := t1.Sub(t0)
			wr.busy += lat
			wr.log.record(t1.Sub(start), lat, err, false)
			if err != nil {
				break
			}
			written += chunk
		}
		t0 = time.Now()
		cerr := f.Close()
		wr.busy += time.Since(t0)
		if err == nil && cerr != nil {
			// A pipelined write failed after its call returned.
			wr.log.record(time.Since(start), 0, cerr, false)
			continue
		}
		if err != nil {
			continue
		}
		if err := s.verifyOutput(f.Server(), name, data[:written]); err != nil {
			wr.log.record(time.Since(start), 0, err, true)
			continue
		}
		wr.bytes += written
		if err := cl.Unlink(name); err != nil {
			wr.log.record(time.Since(start), 0, err, false)
		}
	}
}

// verifyOutput checks a written file at its holder's store, in process.
func (s *streamRun) verifyOutput(addr, name string, want []byte) error {
	i, ok := s.c.byAddr[addr]
	if !ok {
		return fmt.Errorf("output %s written to unknown server %s", name, addr)
	}
	st := s.c.stores[i]
	info, err := st.Stat(name)
	if err != nil {
		return fmt.Errorf("output %s: %w", name, err)
	}
	if info.Size != int64(len(want)) {
		return fmt.Errorf("output %s: %d bytes stored, %d written", name, info.Size, len(want))
	}
	buf := make([]byte, chunk)
	for off := 0; off < len(want); off += chunk {
		n, _, err := st.ReadAtInto(name, int64(off), buf)
		if err != nil {
			return fmt.Errorf("output %s: %w", name, err)
		}
		if !bytes.Equal(buf[:n], want[off:off+n]) {
			return fmt.Errorf("output %s: content mismatch at %d", name, off)
		}
	}
	return nil
}

// streamPhase runs the reader and the writer side by side for d.
type streamPhase struct {
	rd        workerLog
	wr        direction
	maxCreate time.Duration
	replayErr error
	gcs       uint32
	elapsed   time.Duration
	cpu       time.Duration
}

func (s *streamRun) phase(d time.Duration) *streamPhase {
	gc0 := settle()
	cpu0 := cpuTime()
	sp := &streamPhase{}
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.reader(start, end, &sp.rd, &sp.replayErr) }()
	go func() { defer wg.Done(); s.writer(start, end, &sp.wr, &sp.maxCreate) }()
	wg.Wait()
	sp.elapsed = time.Since(start)
	sp.cpu = cpuTime() - cpu0
	sp.gcs = numGC() - gc0
	return sp
}

// calls is every client call of the phase, reads and writes, in time
// order.
func (sp *streamPhase) calls() phase {
	p := mergeLogs(&sp.rd, &sp.wr.log)
	p.Elapsed, p.CPU, p.GCs = sp.elapsed, sp.cpu, sp.gcs
	return p
}

func callLats(l *workerLog) []time.Duration { return mergeLogs(l).lats() }

// run measures the workload on the set-up cell. A traced run splits the
// time into an untraced half, a quarter with spans only (the two give
// the trace overhead) and a quarter that also replays sampled reads.
func (s *streamRun) run(traced bool) (*result, error) {
	s.cn = &countingNet{inner: s.c.net}
	// Counters are read around the untraced phase, which the layer
	// figures use, and at the end, for the checks.
	before := snapshotCounters(s.c, s.cn)
	var mid counters
	var phases []*streamPhase
	rss, err := withRSS(func() {
		d := s.seconds
		if traced {
			d = s.seconds / 2
		}
		phases = append(phases, s.phase(d))
		mid = snapshotCounters(s.c, s.cn)
		if traced {
			s.tr = newTracer()
			phases = append(phases, s.phase(d/2))
			s.replaying = true
			phases = append(phases, s.phase(s.seconds-d-d/2))
		}
	})
	if err != nil {
		return nil, err
	}
	after := snapshotCounters(s.c, s.cn)

	res := newResult()
	res.workload = "stream-rw"
	res.e2e["peak_rss_mb"] = rss
	var wrSum direction
	for _, sp := range phases {
		res.tally.add(sp.rd.tally)
		res.tally.add(sp.wr.log.tally)
		wrSum.bytes += sp.wr.bytes
		wrSum.busy += sp.wr.busy
		if sp.maxCreate >= fullDelay {
			res.fail("stream-rw: a prepared create took %v, at least the %v full delay", sp.maxCreate, fullDelay)
		}
	}
	delta := counterDelta{elapsed: after.at.Sub(before.at), a: before, b: after}
	res.checkCell(s.c, delta)
	if w := delta.b.resolveWait - delta.a.resolveWait; w != 0 {
		res.fail("stream-rw: the manager issued %d wait verdicts; prepared creates must not wait", w)
	}
	if wrSum.bytes == 0 {
		res.fail("stream-rw: no output verified")
	}

	first := phases[0]
	calls := first.calls()
	lat := summarize(calls.lats())
	res.e2e["ops_per_s"] = median(windowRates(calls.Samples, first.elapsed))
	res.phase("stream", res.e2e["ops_per_s"], first.gcs, lat, tailQ)
	res.e2e["op_p50_us"] = us(lat.P50)
	res.layer["op_p995_us"] = us(lat.P995)
	res.e2e["cpu_us_per_op"] = calls.cpuPerOp()
	res.e2e["read_mb_s"] = median(windowRates(first.rd.samples, first.elapsed)) * chunk / (1 << 20)
	res.writeMBs = wrSum.rate()
	res.readCallP50 = us(summarize(callLats(&first.rd)).P50)
	res.writeCallP50 = us(summarize(callLats(&first.wr.log)).P50)

	if traced {
		second := phases[1]
		tsum := summarize(callLats(&second.rd))
		res.traceOverheadPct = (us(tsum.P50)/res.readCallP50 - 1) * 100
		ops := first.rd.tally.Attempted + first.wr.log.tally.Attempted
		res.addLayer(layerCounters(counterDelta{elapsed: mid.at.Sub(before.at), a: before, b: mid}, ops))
		if err := phases[2].replayErr; err != nil {
			res.fail("replay: %v", err)
		}
		p := newProber(s.c, s.tr)
		defer p.close()
		appendAll, appendTail, err := p.battery(s.replay)
		if err != nil {
			res.fail("battery: %v", err)
		}
		res.addSpans(s.tr.snapshot(), appendAll, appendTail)
	}
	return res, nil
}

// replayer is the reader's replay state: a prober and one handle per
// input, opened at its holder for the replays.
type replayer struct {
	p    *prober
	fhs  map[int]uint64
	done int
}

// replayRead replays one sampled stream read at the holder.
func (s *streamRun) replayRead(rp *replayer, op, parent, in int, off int64) error {
	f := s.inputs[in]
	fh, ok := rp.fhs[in]
	if !ok {
		var err error
		if fh, err = rp.p.openAt(f.name, s.c.servers[f.server].DataAddr()); err != nil {
			return err
		}
		rp.fhs[in] = fh
	}
	return rp.p.streamChain(op, parent, f.name, f.server, fh, off, f.data[off:off+chunk])
}
