// Package obs is Scalla's observability subsystem: the pieces that let
// an operator (or a later benchmark PR) see where resolution time goes
// on a live daemon instead of guessing.
//
// It has three parts, modeled on production XRootD's monitoring stack:
//
//   - A ring-buffered event tracer (Tracer/Span) recording per-request
//     span records for the resolve → query-flood → redirect/open paths.
//     When tracing is off the hot path pays a single atomic load.
//   - A summary-monitoring stream (Frame/Emitter/Sink): each daemon
//     periodically emits one JSON frame summarizing its cache, response
//     queue, cluster membership, data plane, transport counters, and
//     per-op latency snapshots, over a pluggable sink (an in-process
//     channel, an io.Writer, or a UDP/TCP target).
//   - An admin/status HTTP handler (/statusz, /metricsz, /tracez) the
//     daemons serve for point-in-time inspection.
//
// The package depends only on internal/metrics and internal/vclock so
// every other component can feed it without import cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"scalla/internal/metrics"
)

// FrameVersion identifies the summary-frame format; consumers skip
// frames with a version they do not understand.
const FrameVersion = 1

// CacheSummary summarizes the location cache (paper Section III-A).
type CacheSummary struct {
	Entries    int64   `json:"entries"`
	Buckets    int64   `json:"buckets"`
	LoadFactor float64 `json:"load_factor"` // entries / buckets
	Inserts    int64   `json:"inserts"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Resizes    int64   `json:"resizes"`
	Hidden     int64   `json:"hidden"` // objects hidden by window ticks
	Swept      int64   `json:"swept"`  // objects removed by sweeps
	Refreshes  int64   `json:"refreshes"`
	Ticks      uint64  `json:"ticks"` // window-clock tick counter Tw
	Epoch      uint64  `json:"epoch"` // master connect counter Nc
	// Conn is the per-subordinate connect stamps C[i] (paper Section
	// III-A4), trimmed of trailing zeros to keep frames small.
	Conn []uint64 `json:"c,omitempty"`
	// ShardEntries is the live entry count per lock stripe of the
	// sharded cache, so stripe skew is visible from the stream and
	// /statusz.
	ShardEntries []int64 `json:"shard_entries,omitempty"`
}

// RespQSummary summarizes the fast response queue (Section III-B).
type RespQSummary struct {
	Depth    int   `json:"depth"` // anchors currently occupied
	Entries  int64 `json:"entries"`
	Joins    int64 `json:"joins"`
	Released int64 `json:"released"`
	Expired  int64 `json:"expired"`
	Full     int64 `json:"full"`
}

// ClusterSummary summarizes the membership table.
type ClusterSummary struct {
	Members   int `json:"members"`
	Online    int `json:"online"`
	Offline   int `json:"offline"` // disconnected but not yet dropped
	ParentsUp int `json:"parents_up"`
}

// DataSummary summarizes the xrd data plane of a server-role node.
type DataSummary struct {
	OpenHandles  int   `json:"open_handles"`
	Inflight     int   `json:"inflight"`
	Opens        int64 `json:"opens"`
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	Staged       int64 `json:"staged"` // waits issued for staging files
}

// StoreSummary summarizes a server's backing store: which backend,
// how full, the stage-in queue, and — for the disk backend — the
// durability picture an operator tunes with the fsync policy
// (STORAGE.md): dirty bytes are the data at risk if power fails now,
// and the fsync latency columns price the `always` policy.
type StoreSummary struct {
	Backend   string `json:"backend"` // "mem" or "disk"
	Files     int    `json:"files"`
	Offline   int    `json:"offline"`     // MSS-only files
	StageQ    int    `json:"stage_queue"` // stage-ins in flight (Vp depth)
	UsedBytes int64  `json:"used_bytes"`

	DirtyBytes    int64 `json:"dirty_bytes"`     // written, not yet fsynced
	Fsyncs        int64 `json:"fsyncs"`          // completed fsync calls
	FsyncMeanUS   int64 `json:"fsync_mean_us"`   // mean fsync latency
	FsyncMaxUS    int64 `json:"fsync_max_us"`    // slowest single fsync
	StagedIn      int64 `json:"staged_in"`       // files promoted from MSS
	RecoveredAtUp int   `json:"recovered_at_up"` // files found at startup
}

// PCacheSummary summarizes an edge proxy cache: the block-cache and
// location-cache hit ratios plus the origin traffic the proxy absorbed,
// so an operator can read the offload ratio straight off the stream.
type PCacheSummary struct {
	Entries    int   `json:"entries"`     // cached files with live block state
	Blocks     int   `json:"blocks"`      // resident data blocks
	BlockBytes int64 `json:"block_bytes"` // bytes held in the block cache

	Hits      int64 `json:"hits"`       // reads served from resident blocks
	Misses    int64 `json:"misses"`     // reads that had to fetch from origin
	OpenHits  int64 `json:"open_hits"`  // opens satisfied without origin frames
	OpenMiss  int64 `json:"open_miss"`  // opens that resolved through origin
	LocHits   int64 `json:"loc_hits"`   // location answers from the edge cache
	LocMisses int64 `json:"loc_misses"` // location answers walked to origin

	OriginBytes   int64 `json:"origin_bytes"`   // data bytes pulled from origin
	OriginOpens   int64 `json:"origin_opens"`   // opens issued to origin servers
	OriginLocates int64 `json:"origin_locates"` // locate walks to origin managers
	BytesServed   int64 `json:"bytes_served"`   // data bytes sent downstream

	EvictedLRU    int64 `json:"evicted_lru"`    // blocks evicted for capacity
	ExpiredWindow int64 `json:"expired_window"` // blocks expired by window ticks
	Invalidated   int64 `json:"invalidated"`    // entries dropped as stale
}

// SchedSummary summarizes the request scheduler (DESIGN.md §11): queue
// depths, shed verdicts, and per-lane enqueue-to-dispatch waits. An
// operator watching a saturated server reads the overload story here —
// shed climbing while ctl_wait stays flat is the layer working as
// designed; ctl_wait climbing means the control lane is compromised.
type SchedSummary struct {
	Clients    int   `json:"clients"`     // registered connections
	QueuedCtl  int   `json:"queued_ctl"`  // control-lane depth
	QueuedData int   `json:"queued_data"` // data-lane depth across clients
	MaxQueued  int   `json:"max_queued"`  // data-lane high-water mark
	InFlight   int   `json:"inflight"`    // handlers executing now
	DispCtl    int64 `json:"disp_ctl"`    // control frames dispatched
	DispData   int64 `json:"disp_data"`   // data frames dispatched
	Shed       int64 `json:"shed"`        // requests answered RetryAfter

	CtlWait  OpSummary `json:"ctl_wait"`  // control-lane queue wait
	DataWait OpSummary `json:"data_wait"` // data-lane queue wait
}

// WireSummary carries the transport's counters: dials, frames and
// bytes sent, and on TCP the syscall-amortization counters — how well
// sends coalesce into vectored-write batches and how many frames each
// read syscall yields. An operator judges the wire path here —
// frames_per_writev near 1 under a pipelined load means sends are
// arriving lock-step (no overlap to harvest); climbing means group
// commit is batching them.
type WireSummary struct {
	Dials           int64   `json:"dials"`             // outbound connections
	Writevs         int64   `json:"writevs"`           // vectored write syscalls
	FramesOut       int64   `json:"frames_out"`        // frames sent
	BytesOut        int64   `json:"bytes_out"`         // bytes sent (incl. prefixes)
	IdleFlushes     int64   `json:"idle_flushes"`      // batches begun on an idle wire
	BacklogFlushes  int64   `json:"backlog_flushes"`   // batches drained behind a flush
	FramesPerWritev float64 `json:"frames_per_writev"` // mean batch size
	// BatchHist buckets flushed batch sizes: 1, 2, 3-4, 5-8, 9-16,
	// 17-32, 33-64, 65+ frames.
	BatchHist []int64 `json:"batch_hist,omitempty"`

	ReadCalls     int64   `json:"read_calls"`      // read syscalls
	FramesIn      int64   `json:"frames_in"`       // frames received
	BytesIn       int64   `json:"bytes_in"`        // bytes received
	FramesPerRead float64 `json:"frames_per_read"` // mean frames per read syscall
}

// OpSummary is one latency histogram rendered for the stream.
type OpSummary struct {
	Count  int64 `json:"n"`
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P90US  int64 `json:"p90_us"`
	P99US  int64 `json:"p99_us"`
	MaxUS  int64 `json:"max_us"`
}

// Frame is one summary-monitoring record. Sections a node does not have
// (a server has no cache, a manager no data plane) are omitted.
type Frame struct {
	V      int    `json:"v"`
	Node   string `json:"node"`
	Role   string `json:"role"`
	Seq    uint64 `json:"seq"`
	UnixMS int64  `json:"unix_ms"`

	Cache    *CacheSummary        `json:"cache,omitempty"`
	RespQ    *RespQSummary        `json:"respq,omitempty"`
	Cluster  *ClusterSummary      `json:"cluster,omitempty"`
	Data     *DataSummary         `json:"data,omitempty"`
	Store    *StoreSummary        `json:"store,omitempty"`
	PCache   *PCacheSummary       `json:"pcache,omitempty"`
	Sched    *SchedSummary        `json:"sched,omitempty"`
	Wire     *WireSummary         `json:"wire,omitempty"`
	Ops      map[string]OpSummary `json:"ops,omitempty"`
	Counters map[string]int64     `json:"counters,omitempty"`
}

// OpFromSnapshot converts a metrics snapshot into the stream's
// microsecond rendering.
func OpFromSnapshot(s metrics.Snapshot) OpSummary {
	return OpSummary{
		Count:  s.Count,
		MeanUS: s.Mean.Microseconds(),
		P50US:  s.P50.Microseconds(),
		P90US:  s.P90.Microseconds(),
		P99US:  s.P99.Microseconds(),
		MaxUS:  s.Max.Microseconds(),
	}
}

// OpsFromRegistry renders every histogram in reg for the stream and
// returns the registry's counters alongside.
func OpsFromRegistry(reg *metrics.Registry) (map[string]OpSummary, map[string]int64) {
	if reg == nil {
		return nil, nil
	}
	ops := map[string]OpSummary{}
	ctrs := map[string]int64{}
	reg.Visit(
		func(name string, c *metrics.Counter) { ctrs[name] = c.Value() },
		func(name string, h *metrics.Histogram) { ops[name] = OpFromSnapshot(h.Snapshot()) },
	)
	if len(ops) == 0 {
		ops = nil
	}
	if len(ctrs) == 0 {
		ctrs = nil
	}
	return ops, ctrs
}

// Encode renders the frame as one JSON document (no trailing newline).
func (f Frame) Encode() []byte {
	b, err := json.Marshal(f)
	if err != nil {
		// Frame is a plain data struct; Marshal cannot fail on it. Keep
		// the stream alive regardless.
		return []byte(fmt.Sprintf(`{"v":%d,"node":%q,"error":%q}`, FrameVersion, f.Node, err))
	}
	return b
}

// ParseFrame decodes one JSON summary frame.
func ParseFrame(b []byte) (Frame, error) {
	var f Frame
	if err := json.Unmarshal(b, &f); err != nil {
		return Frame{}, fmt.Errorf("obs: bad summary frame: %w", err)
	}
	if f.V != FrameVersion {
		return Frame{}, fmt.Errorf("obs: unsupported frame version %d", f.V)
	}
	return f, nil
}

// String renders the frame as the compact one-liner `scalla-cli mon`
// prints.
func (f Frame) String() string {
	var b strings.Builder
	ts := time.UnixMilli(f.UnixMS).UTC().Format("15:04:05.000")
	fmt.Fprintf(&b, "%s %s/%s #%d", ts, f.Node, f.Role, f.Seq)
	if c := f.Cache; c != nil {
		fmt.Fprintf(&b, " cache=%d/%d(%.0f%%) hit=%d miss=%d evict=%d tick=%d nc=%d",
			c.Entries, c.Buckets, c.LoadFactor*100, c.Hits, c.Misses, c.Hidden, c.Ticks, c.Epoch)
	}
	if q := f.RespQ; q != nil {
		fmt.Fprintf(&b, " respq=%d rel=%d exp=%d", q.Depth, q.Released, q.Expired)
	}
	if cl := f.Cluster; cl != nil {
		fmt.Fprintf(&b, " members=%d/%d", cl.Online, cl.Members)
	}
	if d := f.Data; d != nil {
		fmt.Fprintf(&b, " handles=%d reads=%d writes=%d", d.OpenHandles, d.Reads, d.Writes)
	}
	if s := f.Store; s != nil {
		fmt.Fprintf(&b, " store=%s files=%d used=%dB", s.Backend, s.Files, s.UsedBytes)
		if s.Backend == "disk" {
			fmt.Fprintf(&b, " dirty=%dB fsync=%d(mean=%dµs max=%dµs)",
				s.DirtyBytes, s.Fsyncs, s.FsyncMeanUS, s.FsyncMaxUS)
		}
		if s.StageQ > 0 || s.StagedIn > 0 {
			fmt.Fprintf(&b, " stageq=%d staged=%d", s.StageQ, s.StagedIn)
		}
	}
	if p := f.PCache; p != nil {
		total := p.Hits + p.Misses
		ratio := 0.0
		if total > 0 {
			ratio = float64(p.Hits) / float64(total) * 100
		}
		fmt.Fprintf(&b, " pcache=%de/%db hit=%d(%.0f%%) miss=%d origin=%dB served=%dB",
			p.Entries, p.Blocks, p.Hits, ratio, p.Misses, p.OriginBytes, p.BytesServed)
	}
	if s := f.Sched; s != nil {
		fmt.Fprintf(&b, " sched=%dq/%dr shed=%d ctl_p99=%dµs data_p99=%dµs",
			s.QueuedData, s.InFlight, s.Shed, s.CtlWait.P99US, s.DataWait.P99US)
	}
	if w := f.Wire; w != nil {
		fmt.Fprintf(&b, " wire=%df/%dB", w.FramesOut, w.BytesOut)
		if w.Writevs > 0 || w.ReadCalls > 0 {
			fmt.Fprintf(&b, " wv=%d(%.2ff/wv) rd=%d(%.2ff/rd)",
				w.Writevs, w.FramesPerWritev, w.ReadCalls, w.FramesPerRead)
		}
	}
	if op, ok := f.Ops["resolve.latency"]; ok {
		fmt.Fprintf(&b, " resolve{n=%d p50=%dµs p99=%dµs}", op.Count, op.P50US, op.P99US)
	}
	return b.String()
}

// TrimConn drops trailing zero connect stamps so idle slots do not
// bloat every frame.
func TrimConn(conn []uint64) []uint64 {
	n := len(conn)
	for n > 0 && conn[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return conn[:n]
}
