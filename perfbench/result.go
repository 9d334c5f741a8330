package main

// A run's result: the checks, the end-to-end metrics of an untraced run
// or the per-layer metrics of a traced one, and the lines that print
// them.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric, its unit and which way is better. The two
// lists below are the benchmark's contract; BENCHMARK.json lists the
// same names (a unit test keeps them in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the cell sees, reported with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"read_mb_s", "MB/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what the traced run reports, layer by layer.
var perLayer = []metricDef{
	{"op_p995_us", "us", "lower"},
	{"write_mb_s", "MB/s", "higher"},
	{"fail_frac", "ratio", "lower"},
	{"stream.read_call_p50_us", "us", "lower"},
	{"stream.write_call_p50_us", "us", "lower"},
	{"client.open_p50_us", "us", "lower"},
	{"client.open_self_p50_us", "us", "lower"},
	{"client.read_self_p50_us", "us", "lower"},
	{"client.frames_sent_per_op", "count", "lower"},
	{"client.dials", "count", "lower"},
	{"client.waits_per_op", "count", "lower"},
	{"mux.call_p50_us", "us", "lower"},
	{"mux.manager_self_p50_us", "us", "lower"},
	{"mux.sched_dispatched_per_op", "count", "lower"},
	{"mux.sched_shed", "count", "lower"},
	{"mux.sched_max_queued", "count", "lower"},
	{"transport.ping_rtt_p50_us", "us", "lower"},
	{"transport.frames_per_writev", "count", "higher"},
	{"transport.writevs_per_op", "count", "lower"},
	{"transport.frames_per_read", "count", "higher"},
	{"transport.bytes_per_op", "B", "lower"},
	{"cmsd.resolve_warm_p50_us", "us", "lower"},
	{"cmsd.resolve_cold_p50_us", "us", "lower"},
	{"cmsd.resolve_self_p50_us", "us", "lower"},
	{"cmsd.queries_per_op", "count", "lower"},
	{"cmsd.haves_per_op", "count", "lower"},
	{"cmsd.server_queries_per_op", "count", "lower"},
	{"cmsd.negatives", "count", "lower"},
	{"cache.fetch_p50_ns", "ns", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.resizes", "count", "lower"},
	{"cache.stale_refs", "count", "lower"},
	{"respq.released_per_op", "count", "lower"},
	{"respq.joins", "count", "lower"},
	{"respq.expired", "count", "lower"},
	{"cluster.online", "count", "higher"},
	{"xrd.open_close_p50_us", "us", "lower"},
	{"xrd.open_self_p50_us", "us", "lower"},
	{"xrd.read_self_p50_us", "us", "lower"},
	{"xrd.bytes_read_per_s", "B/s", "higher"},
	{"xrd.bytes_written_per_s", "B/s", "higher"},
	{"store.read64k_p50_us", "us", "lower"},
	{"store.append64k_p50_us", "us", "lower"},
	{"store.append64k_at32m_us", "us", "lower"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"bench.open_p50_us", "us", "lower"},
	{"bench.open_p99_us", "us", "lower"},
	{"bench.gen_late_p99_us", "us", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

type result struct {
	workload string
	rate     float64 // open-loop fixed rate, 0 for closed-loop-only workloads
	tally    tally
	setupS   []float64

	e2e   map[string]float64
	layer map[string]float64

	open             *latencySummary // traced run: the open loop at the fixed rate
	genLate          []time.Duration
	traceOverheadPct float64
	writeMBs         float64
	readCallP50      float64
	writeCallP50     float64
	spans            []span

	lines    []string
	failures []string
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.failures) == 0 }

// tailQ is the tail percentile reported as op_p995_us. On open-warm
// about 1.2 % of ops fall in a slow mode near 4.3 ms, so the p99 sits
// on the cliff between that mode and the 0.6 ms body and moved 2.5×
// between runs of the same code; p99.5 lies inside the mode on every
// workload, and p99.9 has only about 20 samples beyond it on open-cold.
// It is a per-layer figure, not a bounded one: with 6–21 % hypervisor
// steal its spread over ten open-cold runs was 0.35.
const tailQ = 0.995

// phase records a phase's line and fails the run if the percentile q
// it reports rests on fewer than minTail samples or is a failed op.
func (r *result) phase(name string, opsPerSec float64, gcs uint32, s latencySummary, q float64) {
	state := "valid"
	if !s.validTail(q) {
		state = "INVALID"
		r.fail("phase %s: its p%g has fewer than %d samples beyond it or is a failed op", name, q*100, minTail)
	}
	r.lines = append(r.lines, fmt.Sprintf(
		"phase %-7s n=%-7d ops/s=%-9.1f p50=%.1fus p99=%.1fus (%d beyond) p99.5=%.1fus (%d beyond) p99.9=%.1fus (%d beyond) gcs=%d %s",
		name, s.N, opsPerSec, us(s.P50), us(s.P99), beyond(s.N, 0.99), us(s.P995), beyond(s.N, 0.995),
		us(s.P999), beyond(s.N, 0.999), gcs, state))
}

// checkCell checks what every workload must see of the cell: all 64
// servers online, and no negative responses under the paper's
// request-rarely-respond protocol.
func (r *result) checkCell(c *cell, d counterDelta) {
	online := c.mgr.Core().Table().Summary().Online
	r.layer["cluster.online"] = float64(online)
	if online != len(c.servers) {
		r.fail("cluster.online = %d, want %d", online, len(c.servers))
	}
	if n := d.b.negatives - d.a.negatives; n != 0 {
		r.fail("cmsd.negatives = %d, want 0 under request-rarely-respond", n)
	}
}

func (r *result) addLayer(m map[string]float64) {
	for k, v := range m {
		r.layer[k] = v
	}
}

func p50(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return summarize(append([]time.Duration(nil), ds...)).P50
}

// selfMetric maps a replay-chain span to the self-time metric it feeds.
var selfMetric = map[string]string{
	"client.open":       "client.open_self_p50_us",
	"client.read":       "client.read_self_p50_us",
	"client.read64k":    "client.read_self_p50_us",
	"mux.manager_call":  "mux.manager_self_p50_us",
	"cmsd.resolve_warm": "cmsd.resolve_self_p50_us",
	"cmsd.resolve_cold": "cmsd.resolve_self_p50_us",
	"mux.call":          "xrd.read_self_p50_us",
	"mux.call64k":       "xrd.read_self_p50_us",
	"xrd.open":          "xrd.open_self_p50_us",
}

// addSpans derives the span-based per-layer metrics: layer p50s from
// the battery's spans, self times from the spans of replayed ops.
func (r *result) addSpans(spans []span, appendAll, appendTail []time.Duration) {
	r.spans = spans
	var battery, chains []span
	replayed := make(map[int]bool)
	for _, s := range spans {
		if s.Op != 0 && !strings.HasPrefix(s.Name, "client.") {
			replayed[s.Op] = true
		}
	}
	for _, s := range spans {
		switch {
		case s.Op == 0:
			battery = append(battery, s)
		case replayed[s.Op]:
			chains = append(chains, s)
		}
	}
	b := durations(battery)
	r.layer["cmsd.resolve_warm_p50_us"] = us(p50(b["cmsd.resolve_warm"]))
	r.layer["cmsd.resolve_cold_p50_us"] = us(p50(b["cmsd.resolve_cold"]))
	r.layer["cache.fetch_p50_ns"] = float64(p50(b["cache.fetch"]))
	r.layer["mux.call_p50_us"] = us(p50(b["mux.call"]))
	r.layer["xrd.open_close_p50_us"] = us(p50(b["xrd.open_close"]))
	r.layer["transport.ping_rtt_p50_us"] = us(p50(b["transport.ping"]))
	r.layer["store.read64k_p50_us"] = us(p50(b["store.read64k"]))
	r.layer["store.append64k_p50_us"] = us(p50(appendAll))
	r.layer["store.append64k_at32m_us"] = us(p50(appendTail))
	r.layer["client.open_p50_us"] = us(p50(durations(spans)["client.open"]))

	self := make(map[string][]time.Duration)
	for name, ds := range selfTimes(chains) {
		if m, ok := selfMetric[name]; ok {
			self[m] = append(self[m], ds...)
		}
	}
	for _, m := range selfMetric {
		r.layer[m] = us(p50(self[m]))
	}
}

// finishLayer fills the per-layer metrics every traced run reports.
func (r *result) finishLayer() {
	r.layer["write_mb_s"] = r.writeMBs
	r.layer["fail_frac"] = r.tally.failFrac()
	r.layer["stream.read_call_p50_us"] = r.readCallP50
	r.layer["stream.write_call_p50_us"] = r.writeCallP50
	r.layer["bench.trace_overhead_pct"] = r.traceOverheadPct
	r.layer["bench.open_p50_us"], r.layer["bench.open_p99_us"] = 0, 0
	if r.open != nil {
		r.layer["bench.open_p50_us"] = us(r.open.P50)
		r.layer["bench.open_p99_us"] = us(r.open.P99)
	}
	r.layer["bench.gen_late_p99_us"] = 0
	if len(r.genLate) > 0 {
		late := append([]time.Duration(nil), r.genLate...)
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		r.layer["bench.gen_late_p99_us"] = us(percentile(late, 0.99))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the human-readable lines and then the result line.
func (r *result) write(w io.Writer, traced bool) error {
	defs, vals := endToEnd, r.e2e
	if traced {
		r.finishLayer()
		defs, vals = perLayer, r.layer
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, "#", l)
	}
	fmt.Fprintf(w, "# ops attempted=%d failed=%d fail_frac=%.6f mismatches=%d\n",
		r.tally.Attempted, r.tally.Failed, r.tally.failFrac(), r.tally.Mismatches)
	if r.tally.FirstErr != "" {
		fmt.Fprintf(w, "# first failure: %s\n", r.tally.FirstErr)
	}
	if r.writeMBs > 0 {
		fmt.Fprintf(w, "# write_mb_s %.3f MB/s (verified output bytes over time in client calls)\n", r.writeMBs)
	}
	if r.tally.Mismatches > 0 {
		r.fail("%d ops moved wrong content", r.tally.Mismatches)
	}
	rep := report{Correct: r.correct(), Attempted: r.tally.Attempted, Failed: r.tally.Failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			rep.Correct = false
			r.failures = append(r.failures, "metric "+d.Name+" was not measured")
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "# %-30s %16.4f %s\n", d.Name, v, d.Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "# CHECK FAILED:", f)
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
		rep.Failed = 1
		rep.Correct = false
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
