package main

// Exact order statistics over raw samples. The repository's
// metrics.Histogram reports the lower bound of ×2 buckets, which hides
// changes smaller than 2×; the benchmark keeps every sample and sorts.

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// failed marks the latency of an op that failed: it counts as missing
// any latency limit, so it sorts above every real sample.
const failed = time.Duration(math.MaxInt64)

// minTail is how many samples must lie beyond a reported percentile for
// the phase to be valid.
const minTail = 10

// percentile returns the q-quantile (0 < q ≤ 1) of sorted samples by
// the nearest-rank rule: the smallest sample with at least q·n samples
// at or below it. sorted must be ascending and non-empty.
func percentile(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above rank ⌈q·n⌉, the tail a
// percentile estimate rests on.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// latencySummary is one phase's latency distribution.
type latencySummary struct {
	N    int
	P50  time.Duration
	P99  time.Duration
	P995 time.Duration
	P999 time.Duration
}

// summarize sorts samples in place and reports their order statistics.
func summarize(samples []time.Duration) latencySummary {
	if len(samples) == 0 {
		return latencySummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return latencySummary{
		N:    len(samples),
		P50:  percentile(samples, 0.50),
		P99:  percentile(samples, 0.99),
		P995: percentile(samples, 0.995),
		P999: percentile(samples, 0.999),
	}
}

// at returns the summarized tail percentile for q: 0.99, 0.995 or 0.999.
func (s latencySummary) at(q float64) time.Duration {
	switch q {
	case 0.99:
		return s.P99
	case 0.995:
		return s.P995
	case 0.999:
		return s.P999
	}
	panic(fmt.Sprintf("latencySummary: no percentile %v", q))
}

// validTail reports whether the q-percentile can be reported: at least
// minTail samples lie beyond it, and it is a real latency rather than a
// failed op.
func (s latencySummary) validTail(q float64) bool {
	return beyond(s.N, q) >= minTail && s.at(q) != failed
}

// rateWindow is the window over which throughput is counted.
const rateWindow = 500 * time.Millisecond

// windowRates counts the successful samples completing in each whole
// rateWindow of a phase lasting total, per second. A phase shorter
// than one window is one window.
func windowRates(samples []sample, total time.Duration) []float64 {
	w := rateWindow
	k := int(total / w)
	if k < 1 {
		k, w = 1, total
	}
	counts := make([]int, k)
	for _, s := range samples {
		if i := int(s.at / w); s.ok() && i < k {
			counts[i]++
		}
	}
	rates := make([]float64, k)
	for i, c := range counts {
		rates[i] = float64(c) / w.Seconds()
	}
	return rates
}

// median returns the median of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts ops and their failures against attempts. Client errors,
// RetryAfter sheds that surface as errors, timeouts and content
// mismatches are all failures; waits the client obeys are not, they
// show up as latency.
type tally struct {
	Attempted  int64
	Failed     int64
	Mismatches int64 // the subset of Failed whose bytes were wrong
	FirstErr   string
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Mismatches += o.Mismatches
	if t.FirstErr == "" {
		t.FirstErr = o.FirstErr
	}
}

// record accounts one op outcome.
func (t *tally) record(err error, mismatch bool) {
	t.Attempted++
	if err == nil && !mismatch {
		return
	}
	t.Failed++
	if mismatch {
		t.Mismatches++
	}
	if t.FirstErr == "" {
		if err != nil {
			t.FirstErr = err.Error()
		} else {
			t.FirstErr = "content mismatch"
		}
	}
}

// failFrac is failed over attempted ops (0 when nothing was attempted).
func (t tally) failFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}
