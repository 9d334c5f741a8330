// Command perfbench is the repository's end-to-end benchmark: it starts
// a 64-server Scalla cell over loopback TCP in this process, drives one
// workload against it from a seeded generator, checks every output, and
// prints the metrics by name with their units. The last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload open-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// measures the same workload with the benchmark's own spans on, replays
// sampled ops layer by layer, and reports the per-layer metrics. See
// perfbench/README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRuns is how many times a run sets a cell up; setup_s is the
// median, and the last cell is the one measured.
const setupRuns = 3

func main() {
	workload := flag.String("workload", "", "open-warm, open-cold or stream-rw")
	seed := flag.Int64("seed", 1, "seed for names, popularity draws and file contents")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	flag.Parse()
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 2 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	traced := *trace == 1

	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := header(os.Stdout, res, *seed, *seconds, traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if traced {
		name := fmt.Sprintf("%s-seed%d.jsonl", res.workload, *seed)
		path, err := writeSpans(*traceDir, name, res.spans)
		if err != nil {
			res.fail("writing spans: %v", err)
		} else {
			fmt.Printf("# spans: %d written to %s\n", len(res.spans), path)
		}
	}
	if err := res.write(os.Stdout, traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// workloadRun is one workload's set-up and measurement.
type workloadRun interface {
	setup() (*cell, error)
	measure(c *cell, traced bool) (*result, error)
}

func (r *openRun) measure(c *cell, traced bool) (*result, error) {
	r.c = c
	return r.run(traced)
}

func (s *streamRun) measure(c *cell, traced bool) (*result, error) {
	s.c = c
	s.awaitVerdict()
	return s.run(traced)
}

func newWorkload(name string, seed int64, d time.Duration) (workloadRun, error) {
	switch name {
	case "open-warm", "open-cold":
		return &openRun{name: name, cold: name == "open-cold", seed: seed, seconds: d,
			workers: runtime.GOMAXPROCS(0)}, nil
	case "stream-rw":
		return &streamRun{seed: seed, seconds: d}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want open-warm, open-cold or stream-rw)", name)
}

// run sets the cell up setupRuns times, keeps the last, and measures.
func run(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	w, err := newWorkload(name, seed, d)
	if err != nil {
		return nil, err
	}
	var c *cell
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if c != nil {
			c.stop()
			runtime.GC()
		}
		t0 := time.Now()
		if c, err = w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.stop()
	res, err := w.measure(c, traced)
	if err != nil {
		return nil, err
	}
	res.setupS = setups
	res.e2e["setup_s"] = median(setups)
	return res, nil
}

// runInfo is what a result records about how it was produced.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Traced     bool      `json:"traced"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Cell       string    `json:"cell"`
	FixedRate  float64   `json:"fixed_rate_ops_s"`
	SetupS     []float64 `json:"setup_s_runs"`
}

func header(w io.Writer, res *result, seed int64, seconds int, traced bool) error {
	info := runInfo{
		Workload: res.workload, Seed: seed, Seconds: seconds, Traced: traced,
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Cell:      fmt.Sprintf("1 manager + %d servers, loopback TCP, in-memory stores, full delay %v", cellServers, fullDelay),
		FixedRate: res.rate, SetupS: res.setupS,
	}
	b, err := json.Marshal(info)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "# run %s\n", b)
	return err
}

// commit names the code under test: the VCS revision the binary was
// built from, or "unknown" when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}
