package main

// Load generation. Ops come from one seeded source; a closed loop runs
// `workers` clients back to back, an open loop releases ops on a fixed
// schedule through one pacing goroutine to at most `workers` workers
// and times each op from when it was due, so a stall is charged to
// every op it delays.

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// opFunc runs op `item` on worker w; the loop times the call.
type opFunc func(w, item int) error

// checkFunc verifies, off the clock, the bytes op `item` just moved on
// worker w. It runs only after the op succeeded.
type checkFunc func(w, item int) bool

// source hands out op items; ok=false means it is exhausted.
type source func() (item int, ok bool)

// sample is one attempted op.
type sample struct {
	at  time.Duration // since the phase start: completion (closed loop) or due time (open loop)
	lat time.Duration // `failed` for a failed op
}

func (s sample) ok() bool { return s.lat != failed }

// phase is the raw record of one measured phase.
type phase struct {
	Elapsed time.Duration
	GCs     uint32          // garbage collections that ran during the phase
	CPU     time.Duration   // process CPU time (user+sys) the phase used
	Samples []sample        // in time order
	Late    []time.Duration // open loop: how late each op was handed off
	Tally   tally
}

// cpuPerOp is the process CPU time per completed op, in µs. The
// hypervisor's steal is not charged to the process, so unlike rates and
// latencies it does not move with the machine's other tenants.
func (p phase) cpuPerOp() float64 {
	n := 0
	for _, s := range p.Samples {
		if s.ok() {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return us(p.CPU) / float64(n)
}

func (p phase) lats() []time.Duration {
	out := make([]time.Duration, len(p.Samples))
	for i, s := range p.Samples {
		out[i] = s.lat
	}
	return out
}

// workerLog is one worker's private record, merged after the phase.
type workerLog struct {
	samples []sample
	tally   tally
}

// finish checks a completed op and records it.
func (l *workerLog) finish(w, item int, at, lat time.Duration, err error, check checkFunc) {
	mismatch := err == nil && !check(w, item)
	l.record(at, lat, err, mismatch)
}

func (l *workerLog) record(at, lat time.Duration, err error, mismatch bool) {
	l.tally.record(err, mismatch)
	if err != nil || mismatch {
		lat = failed
	}
	l.samples = append(l.samples, sample{at: at, lat: lat})
}

// mergeLogs joins worker logs into one phase with samples in time order.
func mergeLogs(logs ...*workerLog) phase {
	var p phase
	for _, l := range logs {
		p.Samples = append(p.Samples, l.samples...)
		p.Tally.add(l.tally)
	}
	sort.SliceStable(p.Samples, func(i, j int) bool { return p.Samples[i].at < p.Samples[j].at })
	return p
}

// sleepPrecise blocks the calling goroutine's thread in nanosleep.
// time.Sleep wakes through the runtime's network poller, whose timeout
// has millisecond resolution on Linux: it would release a schedule of
// thousands of ops/s in bursts and charge the bursts' queueing to the
// cell.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// settle collects garbage before a measured phase, so every run starts
// its phases with the same heap. It returns the GC count so far.
func settle() uint32 {
	runtime.GC()
	return numGC()
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// closedLoop runs `workers` back-to-back clients for d, or until next
// is exhausted.
func closedLoop(d time.Duration, workers int, next source, op opFunc, check checkFunc) phase {
	gc0 := settle()
	cpu0 := cpuTime()
	logs := make([]*workerLog, workers)
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := range logs {
		logs[w] = &workerLog{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				item, ok := next()
				if !ok {
					return
				}
				t0 := time.Now()
				err := op(w, item)
				t1 := time.Now()
				logs[w].finish(w, item, t1.Sub(start), t1.Sub(t0), err, check)
			}
		}(w)
	}
	wg.Wait()
	p := mergeLogs(logs...)
	p.Elapsed = time.Since(start)
	p.CPU = cpuTime() - cpu0
	p.GCs = numGC() - gc0
	return p
}

// dueAt is the scheduled release time of op i at a fixed rate.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// openLoop releases ops at `rate` per second for d. The pacer sleeps
// until each op is due and hands it to the first free worker; when all
// workers are busy the hand-off waits, the op's clock keeps running
// from its due time, and the wait is recorded as generator lateness.
func openLoop(d time.Duration, rate float64, workers int, next source, op opFunc, check checkFunc) phase {
	type job struct {
		due  time.Time
		item int
	}
	gc0 := settle()
	cpu0 := cpuTime()
	jobs := make(chan job)
	logs := make([]*workerLog, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range logs {
		logs[w] = &workerLog{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				err := op(w, j.item)
				logs[w].finish(w, j.item, j.due.Sub(start), time.Since(j.due), err, check)
			}
		}(w)
	}
	end := start.Add(d)
	var late []time.Duration
	for i := 0; ; i++ {
		due := dueAt(start, i, rate)
		if !due.Before(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			sleepPrecise(wait)
		}
		item, ok := next()
		if !ok {
			break
		}
		jobs <- job{due: due, item: item}
		late = append(late, time.Since(due))
	}
	close(jobs)
	wg.Wait()
	p := mergeLogs(logs...)
	p.Elapsed = time.Since(start)
	p.CPU = cpuTime() - cpu0
	p.GCs = numGC() - gc0
	p.Late = late
	return p
}
