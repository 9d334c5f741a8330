package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"scalla/internal/metrics"
)

// AdminState is what the admin endpoint exposes. Any field may be nil;
// the matching endpoint then reports 404.
type AdminState struct {
	// Collect assembles the node's current summary frame (served at
	// /statusz).
	Collect Collector
	// Registry is the node's metrics registry (served at /metricsz).
	Registry *metrics.Registry
	// Tracer supplies completed spans (served at /tracez) and is
	// toggled by POST /tracez?enable=true|false.
	Tracer *Tracer
}

// NewHandler returns the admin/status handler:
//
//	GET  /statusz            current summary frame as pretty JSON
//	GET  /metricsz           metrics registry dump, text
//	GET  /tracez?n=100       most recent spans as JSON
//	POST /tracez?enable=true toggle tracing at runtime
func NewHandler(st AdminState) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		if st.Collect == nil {
			http.NotFound(w, r)
			return
		}
		f := st.Collect()
		f.V = FrameVersion
		if f.UnixMS == 0 {
			f.UnixMS = time.Now().UnixMilli()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(f)
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		if st.Registry == nil && st.Collect == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if st.Registry != nil {
			w.Write([]byte(st.Registry.Dump()))
			w.Write([]byte("\n"))
		}
		// The scheduler and wire layers keep their own counters (a
		// registry is optional on data-only nodes), so their sections are
		// appended from the summary frame rather than the registry.
		if st.Collect != nil {
			f := st.Collect()
			if wd := f.Wire; wd != nil {
				fmt.Fprintf(w, "counter wire.dials = %d\n", wd.Dials)
				fmt.Fprintf(w, "counter wire.writevs = %d\n", wd.Writevs)
				fmt.Fprintf(w, "counter wire.frames_out = %d\n", wd.FramesOut)
				fmt.Fprintf(w, "counter wire.bytes_out = %d\n", wd.BytesOut)
				fmt.Fprintf(w, "counter wire.idle_flushes = %d\n", wd.IdleFlushes)
				fmt.Fprintf(w, "counter wire.backlog_flushes = %d\n", wd.BacklogFlushes)
				fmt.Fprintf(w, "counter wire.read_calls = %d\n", wd.ReadCalls)
				fmt.Fprintf(w, "counter wire.frames_in = %d\n", wd.FramesIn)
				fmt.Fprintf(w, "counter wire.bytes_in = %d\n", wd.BytesIn)
				fmt.Fprintf(w, "gauge   wire.frames_per_writev = %.2f\n", wd.FramesPerWritev)
				fmt.Fprintf(w, "gauge   wire.frames_per_read = %.2f\n", wd.FramesPerRead)
				fmt.Fprintf(w, "hist    wire.batch_frames :")
				labels := []string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"}
				for i, n := range wd.BatchHist {
					if i < len(labels) {
						fmt.Fprintf(w, " %s=%d", labels[i], n)
					}
				}
				fmt.Fprintln(w)
			}
			if s := f.Sched; s != nil {
				fmt.Fprintf(w, "counter sched.disp_ctl = %d\n", s.DispCtl)
				fmt.Fprintf(w, "counter sched.disp_data = %d\n", s.DispData)
				fmt.Fprintf(w, "counter sched.shed = %d\n", s.Shed)
				fmt.Fprintf(w, "gauge   sched.clients = %d\n", s.Clients)
				fmt.Fprintf(w, "gauge   sched.inflight = %d\n", s.InFlight)
				fmt.Fprintf(w, "gauge   sched.max_queued = %d\n", s.MaxQueued)
				fmt.Fprintf(w, "gauge   sched.queued_ctl = %d\n", s.QueuedCtl)
				fmt.Fprintf(w, "gauge   sched.queued_data = %d\n", s.QueuedData)
				for _, lw := range []struct {
					name string
					op   OpSummary
				}{{"sched.ctl_wait", s.CtlWait}, {"sched.data_wait", s.DataWait}} {
					fmt.Fprintf(w, "hist    %s : n=%d mean=%dµs p50=%dµs p90=%dµs p99=%dµs max=%dµs\n",
						lw.name, lw.op.Count, lw.op.MeanUS, lw.op.P50US, lw.op.P90US, lw.op.P99US, lw.op.MaxUS)
				}
			}
		}
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		if st.Tracer == nil {
			http.NotFound(w, r)
			return
		}
		if r.Method == http.MethodPost {
			on, err := strconv.ParseBool(r.URL.Query().Get("enable"))
			if err != nil {
				http.Error(w, "tracez: enable must be true or false", http.StatusBadRequest)
				return
			}
			st.Tracer.SetEnabled(on)
			w.Write([]byte("ok\n"))
			return
		}
		n := 0
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "tracez: n must be an integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Enabled bool         `json:"enabled"`
			Total   int64        `json:"total"`
			Spans   []SpanRecord `json:"spans"`
		}{st.Tracer.Enabled(), st.Tracer.Total(), st.Tracer.Spans(n)})
	})
	return mux
}
