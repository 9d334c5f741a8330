package main

// Public counters of every layer, snapshotted around the measured
// phases. Deltas divided by ops give the per-op work each layer did.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scalla/internal/cache"
	"scalla/internal/respq"
	"scalla/internal/transport"
)

type counters struct {
	at time.Time

	cpu        time.Duration // process user+sys time
	allocBytes uint64        // runtime.MemStats.TotalAlloc
	gcPause    time.Duration // runtime.MemStats.PauseTotalNs

	clientFrames int64
	clientDials  int64
	wire         transport.WireSnapshot

	resolveWait   int64 // manager resolve.wait verdicts
	queries       int64 // manager resolve.queries (queries sent)
	haves         int64 // manager resolve.haves (responses handled)
	serverQueries int64 // sum of Node.QueriesReceived over servers
	negatives     int64 // sum of Node.Negatives over servers
	cache         cache.Stats
	respq         respq.Stats

	schedDispatched int64 // servers' scheduler dispatches, both lanes
	schedShed       int64
	schedMaxQueued  int // highest data-lane depth of any server

	xrdRead    int64
	xrdWritten int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapshotCounters(c *cell, cn *countingNet) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	core := c.mgr.Core()
	reg := core.Metrics()
	s := counters{
		at:           time.Now(),
		cpu:          cpuTime(),
		allocBytes:   ms.TotalAlloc,
		gcPause:      time.Duration(ms.PauseTotalNs),
		clientFrames: cn.frames.Load(),
		clientDials:  cn.dials.Load(),
		wire:         c.net.Wire(),
		resolveWait:  reg.Counter("resolve.wait").Value(),
		queries:      reg.Counter("resolve.queries").Value(),
		haves:        reg.Counter("resolve.haves").Value(),
		cache:        core.Cache().Stats(),
		respq:        core.Queue().Stats(),
	}
	for _, srv := range c.servers {
		s.serverQueries += srv.QueriesReceived()
		s.negatives += srv.Negatives()
		d := srv.DataServer()
		st := d.Sched().Stats()
		s.schedDispatched += st.DispatchedControl + st.DispatchedData
		s.schedShed += st.Shed
		if st.MaxQueuedData > s.schedMaxQueued {
			s.schedMaxQueued = st.MaxQueuedData
		}
		xs := d.Stats()
		s.xrdRead += xs.BytesRead
		s.xrdWritten += xs.BytesWritten
	}
	return s
}

// counterDelta is what the layers did between two snapshots.
type counterDelta struct {
	elapsed time.Duration
	a, b    counters
}

func perOp(v int64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(v) / float64(ops)
}

// layerCounters turns a delta into the per-layer counter metrics.
func layerCounters(d counterDelta, ops int64) map[string]float64 {
	a, b := d.a, d.b
	wire := b.wire.Sub(a.wire)
	hits := b.cache.Hits - a.cache.Hits
	misses := b.cache.Misses - a.cache.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	secs := d.elapsed.Seconds()
	return map[string]float64{
		"client.frames_sent_per_op":   perOp(b.clientFrames-a.clientFrames, ops),
		"client.dials":                float64(b.clientDials - a.clientDials),
		"client.waits_per_op":         perOp(b.resolveWait-a.resolveWait, ops),
		"mux.sched_dispatched_per_op": perOp(b.schedDispatched-a.schedDispatched, ops),
		"mux.sched_shed":              float64(b.schedShed - a.schedShed),
		"mux.sched_max_queued":        float64(b.schedMaxQueued),
		"transport.frames_per_writev": wire.MeanBatch(),
		"transport.writevs_per_op":    perOp(wire.Writevs, ops),
		"transport.frames_per_read":   wire.MeanFramesPerRead(),
		"transport.bytes_per_op":      perOp(wire.BytesOut, ops),
		"cmsd.queries_per_op":         perOp(b.queries-a.queries, ops),
		"cmsd.haves_per_op":           perOp(b.haves-a.haves, ops),
		"cmsd.server_queries_per_op":  perOp(b.serverQueries-a.serverQueries, ops),
		"cmsd.negatives":              float64(b.negatives - a.negatives),
		"cache.hit_ratio":             hitRatio,
		"cache.resizes":               float64(b.cache.Resizes - a.cache.Resizes),
		"cache.stale_refs":            float64(b.cache.StaleRefs - a.cache.StaleRefs),
		"respq.released_per_op":       perOp(b.respq.Released-a.respq.Released, ops),
		"respq.joins":                 float64(b.respq.Joins - a.respq.Joins),
		"respq.expired":               float64(b.respq.Expired - a.respq.Expired),
		"xrd.bytes_read_per_s":        float64(b.xrdRead-a.xrdRead) / secs,
		"xrd.bytes_written_per_s":     float64(b.xrdWritten-a.xrdWritten) / secs,
		"proc.cpu_us_per_op":          perOp(int64((b.cpu-a.cpu)/time.Microsecond), ops),
		"proc.alloc_bytes_per_op":     perOp(int64(b.allocBytes-a.allocBytes), ops),
		"proc.gc_pause_ms":            float64(b.gcPause-a.gcPause) / float64(time.Millisecond),
	}
}

// rssMB reads the process's current resident set size.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// rssEvery is how often the resident set size is sampled during the
// measured phases.
const rssEvery = 10 * time.Millisecond

// withRSS runs fn while sampling the resident set size and returns the
// highest reading, in MB.
func withRSS(fn func()) (float64, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak float64
	var sampleErr error
	go func() {
		defer close(done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				mb, err := rssMB()
				if err != nil {
					sampleErr = err
					continue
				}
				peak = max(peak, mb)
			}
		}
	}()
	fn()
	close(stop)
	<-done
	if sampleErr != nil {
		return 0, sampleErr
	}
	return peak, nil
}
