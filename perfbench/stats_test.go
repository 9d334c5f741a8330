package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, ms(i))
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.01, ms(1)}, {0.50, ms(50)}, {0.99, ms(99)}, {1, ms(100)}, {0.995, ms(100)},
	} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..100ms, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]time.Duration{ms(7)}, 0.99); got != ms(7) {
		t.Errorf("percentile of one sample = %v, want 7ms", got)
	}
}

func TestSummarizeExactAndTail(t *testing.T) {
	// 2000 samples 1..2000 µs, shuffled: the percentiles are exact order
	// statistics, not bucket bounds, and 10 samples lie beyond p99.5.
	var s []time.Duration
	for i := 0; i < 2000; i++ {
		s = append(s, time.Duration((i*617)%2000+1)*time.Microsecond)
	}
	got := summarize(s)
	us := time.Microsecond
	if got.N != 2000 || got.P50 != 1000*us || got.P99 != 1980*us || got.P995 != 1990*us || got.P999 != 1998*us {
		t.Fatalf("summarize = %+v, want n=2000 p50=1000µs p99=1980µs p99.5=1990µs p99.9=1998µs", got)
	}
	if !got.validTail(0.995) {
		t.Fatal("p99.5 of 2000 samples has 10 beyond it and should be valid")
	}
	if got.validTail(0.999) {
		t.Fatal("p99.9 of 2000 samples has 2 beyond it and should be invalid")
	}
	// 1999 samples leave only 9 beyond p99.5.
	if short := summarize(s[:1999]); short.validTail(0.995) {
		t.Fatal("p99.5 of 1999 samples should be invalid")
	}
}

func TestFailedOpsMissEveryLimit(t *testing.T) {
	// A failed op counts as missing any latency limit: with 2% failures
	// the p99 is a failure and cannot be reported.
	var l workerLog
	for i := 0; i < 980; i++ {
		l.record(ms(i), ms(1), nil, false)
	}
	for i := 0; i < 20; i++ {
		l.record(ms(980+i), ms(1), errors.New("boom"), false)
	}
	s := summarize(mergeLogs(&l).lats())
	if s.P99 != failed || s.validTail(0.99) {
		t.Fatalf("p99 = %v, want a failed op, reported invalid", s.P99)
	}
	if s.P50 != ms(1) {
		t.Fatalf("p50 = %v, want 1ms", s.P50)
	}
}

func TestWindowRates(t *testing.T) {
	// 2.2 s of ops: 100 per second in the first second, 300 per second
	// after, one failure; the partial last window is dropped.
	var s []sample
	for at := time.Duration(0); at < 2200*time.Millisecond; {
		step := 10 * time.Millisecond
		if at >= time.Second {
			step = 10 * time.Millisecond / 3
		}
		s = append(s, sample{at: at, lat: ms(1)})
		at += step
	}
	s[0].lat = failed
	got := windowRates(s, 2200*time.Millisecond)
	if len(got) != 4 {
		t.Fatalf("windows = %d, want 4", len(got))
	}
	if got[0] != 98 || got[1] != 100 || got[2] < 295 || got[2] > 305 || got[3] < 295 || got[3] > 305 {
		t.Errorf("rates = %v, want [98 100 ~300 ~300]", got)
	}
}

func TestTallyFailFrac(t *testing.T) {
	var a, b tally
	a.record(nil, false)
	a.record(nil, false)
	a.record(errors.New("retry after"), false)
	b.record(nil, true) // wrong content
	b.record(nil, false)
	a.add(b)
	if a.Attempted != 5 || a.Failed != 2 || a.Mismatches != 1 {
		t.Fatalf("tally = %+v, want 5 attempted, 2 failed, 1 mismatch", a)
	}
	if got := a.failFrac(); got != 0.4 {
		t.Fatalf("failFrac = %v, want 0.4", got)
	}
	if a.FirstErr != "retry after" {
		t.Fatalf("first error = %q", a.FirstErr)
	}
	if (tally{}).failFrac() != 0 {
		t.Fatal("failFrac of nothing attempted should be 0")
	}
}

// One wrong read among many good ones must fail the run, not only
// nudge fail_frac.
func TestOneMismatchFailsTheRun(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := newResult()
		for _, d := range endToEnd {
			r.e2e[d.Name] = 1
		}
		for _, d := range perLayer {
			r.layer[d.Name] = 1
		}
		for i := 0; i < 100000; i++ {
			r.tally.record(nil, false)
		}
		r.tally.record(nil, true)
		var out bytes.Buffer
		if err := r.write(&out, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Correct || r.correct() {
			t.Errorf("traced=%v: one content mismatch in %d ops left the run correct", traced, rep.Attempted)
		}
		if rep.Failed != 1 || rep.Attempted != 100001 {
			t.Errorf("traced=%v: attempted=%d failed=%d, want 100001 and 1", traced, rep.Attempted, rep.Failed)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	// One worker, 200 ops/s (5 ms apart), each op takes 12 ms: the
	// generator falls further behind every op, and each op's latency
	// counts its wait from the due time, not just its 12 ms service.
	var n int
	next := func() (int, bool) { n++; return n, true }
	op := func(w, item int) error { time.Sleep(12 * time.Millisecond); return nil }
	p := openLoop(100*time.Millisecond, 200, 1, next, op, func(int, int) bool { return true })
	if len(p.Samples) != 20 || len(p.Late) != 20 {
		t.Fatalf("ops = %d late = %d, want 20 each", len(p.Samples), len(p.Late))
	}
	for i, s := range p.Samples {
		if want := time.Duration(i) * 5 * time.Millisecond; s.at != want {
			t.Errorf("op %d stamped at %v, want its due time %v", i, s.at, want)
		}
	}
	s := summarize(p.lats())
	last := p.Late[len(p.Late)-1]
	// Op i is handed off near 12(i-1) ms but was due at 5i ms.
	if last < 100*time.Millisecond {
		t.Errorf("last hand-off lateness = %v, want ≥ 100ms", last)
	}
	if s.P99 < last+12*time.Millisecond {
		t.Errorf("p99 latency %v does not include the %v lateness", s.P99, last)
	}
}

func TestOpenLoopOnScheduleIsOnTime(t *testing.T) {
	var n int
	next := func() (int, bool) { n++; return n, true }
	p := openLoop(200*time.Millisecond, 100, 2, next, func(int, int) error { return nil }, func(int, int) bool { return true })
	if len(p.Samples) != 20 {
		t.Fatalf("ops = %d, want 20", len(p.Samples))
	}
	for i, l := range p.Late {
		if l > 20*time.Millisecond {
			t.Errorf("op %d handed off %v late on an idle system", i, l)
		}
	}
}

func TestDueAt(t *testing.T) {
	start := time.Unix(0, 0)
	if got := dueAt(start, 3, 4000).Sub(start); got != 750*time.Microsecond {
		t.Fatalf("op 3 at 4000/s due after %v, want 750µs", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 with live children open 0..60 and read 60..100; open
	// has two replayed children of 20 and 25, read one of 50 (longer
	// than itself, so its self time floors at zero).
	at := func(a, b int) (time.Duration, time.Duration) { return time.Duration(a), time.Duration(b) }
	mk := func(id, parent int, name string, a, b int) span {
		s, e := at(a, b)
		return span{ID: id, Parent: parent, Op: 1, Name: name, Start: s, End: e}
	}
	spans := []span{
		mk(1, 0, "client.op", 0, 100),
		mk(2, 1, "client.open", 0, 60),
		mk(3, 1, "client.read", 60, 100),
		mk(4, 2, "mux.manager_call", 200, 220),
		mk(5, 2, "xrd.open", 300, 325),
		mk(6, 3, "mux.call", 400, 450),
		mk(7, 4, "cmsd.resolve_warm", 500, 505),
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"client.op": 0, "client.open": 15, "client.read": 0,
		"mux.manager_call": 15, "xrd.open": 25, "mux.call": 50, "cmsd.resolve_warm": 5,
	}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self(%s) = %v, want [%v]", name, got, w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.record("x", 1, 0, time.Now(), time.Now()); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	if tr.snapshot() != nil {
		t.Fatal("nil tracer has spans")
	}
}

func TestContentIsSeededAndPositionAddressable(t *testing.T) {
	k := contentKey(7, "/a")
	whole := make([]byte, 4096)
	fillContent(k, 0, whole)
	part := make([]byte, 1024)
	fillContent(k, 2048, part)
	if string(part) != string(whole[2048:3072]) {
		t.Fatal("a range generated alone differs from the same range of the whole file")
	}
	other := make([]byte, 4096)
	fillContent(contentKey(8, "/a"), 0, other)
	if string(other) == string(whole) {
		t.Fatal("another seed produced the same content")
	}
}

func TestZipfPickerIsSeeded(t *testing.T) {
	a, b := newZipfPicker(3, 1000), newZipfPicker(3, 1000)
	counts := make(map[int]int)
	for i := 0; i < 10000; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("draw %d: %d != %d with the same seed", i, x, y)
		}
		counts[x]++
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	// The most popular of 1000 files gets far more than a uniform 10.
	if top < 500 {
		t.Fatalf("most popular file drawn %d times in 10000; not Zipf-skewed", top)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// in step with what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1, time.Second); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}
