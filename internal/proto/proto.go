// Package proto defines the wire messages exchanged by Scalla daemons
// and clients, with a compact binary encoding.
//
// Two planes share the framing. The control plane runs between cmsd
// instances (login, file queries, positive-only responses, load
// reports). The data plane runs between clients and xrootd/cmsd
// (locate/redirect, open/read/write/close/stat/prepare). A frame is one
// message: a single kind byte, a 4-byte big-endian stream ID, and the
// message's fields in big-endian order with varint-prefixed byte
// strings.
//
// The stream ID multiplexes many outstanding requests over one
// connection (see internal/mux): a requester tags each frame with a
// nonzero stream of its choosing, and a responder must echo the
// request's stream on the reply so replies can be demultiplexed out of
// order. Stream 0 is the lock-step default used by Marshal and
// MarshalFrame; Unmarshal ignores the field, so single-stream callers
// never see it.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Kind identifies a message type on the wire.
type Kind uint8

// Control-plane kinds (cmsd ↔ cmsd).
const (
	KLogin Kind = iota + 1
	KLoginOK
	KLoginRej
	KQuery
	KHave
	KPing
	KPong
	// KHaveNot exists only for the respond-always baseline of
	// experiment E10; Scalla proper never sends negative responses.
	KHaveNot
	// KLoginRedirect vectors a subordinate whose parent cell is full at
	// a supervisor with spare capacity (cell overflow, DESIGN.md §12).
	KLoginRedirect
)

// Data-plane kinds (client ↔ xrootd/cmsd).
const (
	KLocate Kind = iota + 32
	KRedirect
	KWait
	KErr
	KOpen
	KOpenOK
	KRead
	KData
	KWrite
	KWriteOK
	KClose
	KCloseOK
	KStat
	KStatOK
	KPrepare
	KPrepareOK
	KUnlink
	KUnlinkOK
	KList
	KListOK
	KTrunc
	KTruncOK
	KRetryAfter
)

// Role is a node's position in the 64-ary tree.
type Role uint8

// Node roles, leaf to root of the B-64 tree.
const (
	RoleServer Role = iota + 1
	RoleSupervisor
	RoleManager
)

// String returns the role's lowercase wire name.
func (r Role) String() string {
	switch r {
	case RoleServer:
		return "server"
	case RoleSupervisor:
		return "supervisor"
	case RoleManager:
		return "manager"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Error codes carried by Err.
const (
	ENoEnt    = 2  // file does not exist
	EIO       = 5  // I/O failure
	EExist    = 17 // create of an existing file
	EInval    = 22 // malformed request
	EBusy     = 16 // resource contention; retry later
	ENotReady = 11 // staging in progress; retry after wait
)

// Message is implemented by every wire message.
type Message interface{ Kind() Kind }

// ----------------------------------------------------------- control --

// Login is a subordinate's first message on a control connection: it
// declares the node's role, public data-plane address, and exported path
// prefixes. Registration deliberately carries no file manifest — the
// paper's "extremely light" registration (Section V).
type Login struct {
	Role     Role
	Name     string // stable node identity (survives reconnect)
	DataAddr string // address clients are redirected to
	CtlAddr  string // address subordinate cmsds dial (supervisors)
	Prefixes []string
	Free     int64  // free space, for selection
	Load     uint32 // load estimate, for selection
}

// Kind implements Message.
func (Login) Kind() Kind { return KLogin }

// SlotLimit is the width of a cmsd subordinate set: indices live in
// [0, SlotLimit). The wire carries them as uint8 (LoginOK.Index), so any
// future fanout change must widen the field before raising this — use
// SlotIndex for every int→uint8 narrowing so an overflowing index is a
// refused login, not a silent alias (the respq 32/32 token-aliasing bug,
// in slot form).
const SlotLimit = 64

// SlotIndex converts a membership-table index to its wire form with a
// bounds check. ok=false means the index does not fit the protocol's
// [0, SlotLimit) slot space and must not be sent.
func SlotIndex(i int) (idx uint8, ok bool) {
	if i < 0 || i >= SlotLimit {
		return 0, false
	}
	return uint8(i), true
}

// LoginOK acknowledges a Login and tells the subordinate its index in
// the parent's 64-wide set.
type LoginOK struct {
	Index uint8
}

// Kind implements Message.
func (LoginOK) Kind() Kind { return KLoginOK }

// LoginRedirect refuses a Login because the parent's subordinate set is
// full, vectoring the subordinate at a supervisor child with capacity
// instead (cell overflow): the subordinate should retry its login at
// CtlAddr. Unlike LoginRej, a redirect is not an error — it is how a
// 65th server finds its place in the tree without redial-looping
// against a full parent forever.
type LoginRedirect struct {
	CtlAddr string
}

// Kind implements Message.
func (LoginRedirect) Kind() Kind { return KLoginRedirect }

// LoginRej refuses a Login (set full, duplicate name, bad role).
type LoginRej struct {
	Reason string
}

// Kind implements Message.
func (LoginRej) Kind() Kind { return KLoginRej }

// Query asks a subordinate whether it has a file. Subordinates answer
// only positively (request-rarely-respond); silence means "no".
type Query struct {
	QID   uint64
	Path  string
	Hash  uint32 // CRC32 of Path, computed once at the top
	Write bool   // access mode the client wants
}

// Kind implements Message.
func (Query) Kind() Kind { return KQuery }

// Have is the positive answer to a Query: the sender has the file
// (Pending=false) or is staging it (Pending=true).
type Have struct {
	QID      uint64
	Path     string
	Hash     uint32
	Pending  bool
	CanWrite bool
}

// Kind implements Message.
func (Have) Kind() Kind { return KHave }

// HaveNot is the explicit negative answer used ONLY by the
// respond-always protocol baseline (experiment E10). The production
// protocol treats silence as "no" (Section III-B).
type HaveNot struct {
	QID  uint64
	Path string
	Hash uint32
}

// Kind implements Message.
func (HaveNot) Kind() Kind { return KHaveNot }

// Ping solicits a Pong; it doubles as the liveness probe.
type Ping struct{}

// Kind implements Message.
func (Ping) Kind() Kind { return KPing }

// Pong reports current load and free space for server selection.
type Pong struct {
	Load uint32
	Free int64
}

// Kind implements Message.
func (Pong) Kind() Kind { return KPong }

// -------------------------------------------------------------- data --

// Locate asks a manager/supervisor for a server that can satisfy the
// given access. Refresh requests a cache refresh, naming the Avoid host
// that failed (Section III-C1).
type Locate struct {
	Path    string
	Write   bool
	Create  bool
	Refresh bool
	Avoid   string
}

// Kind implements Message.
func (Locate) Kind() Kind { return KLocate }

// Redirect vectors the client at a subordinate node.
type Redirect struct {
	Addr    string
	CtlAddr string // non-empty when Addr is itself a redirector
	Pending bool   // target is staging the file; expect a wait there
}

// Kind implements Message.
func (Redirect) Kind() Kind { return KRedirect }

// Wait tells the client to pause and retry the same request.
type Wait struct {
	Millis uint32
}

// Kind implements Message.
func (Wait) Kind() Kind { return KWait }

// Err reports failure of the preceding request.
type Err struct {
	Code uint32
	Msg  string
}

// Kind implements Message.
func (Err) Kind() Kind { return KErr }

// Open opens a file on a data server. Inline is the largest file, in
// bytes, the client will take whole in the reply instead of a handle
// (0 = never); servers that do not inline ignore it.
type Open struct {
	Path   string
	Write  bool
	Create bool
	Inline uint32
}

// Kind implements Message.
func (Open) Kind() Kind { return KOpen }

// OpenOK returns the file handle for subsequent I/O. FH 0 means the
// open was answered inline: Bytes holds the whole file as read at open
// time (EOF set as on a Data reply) and the server keeps no handle, so
// the file needs neither Read nor Close.
type OpenOK struct {
	FH    uint64
	Size  int64
	EOF   bool
	Bytes []byte
}

// Kind implements Message.
func (OpenOK) Kind() Kind { return KOpenOK }

// Read requests N bytes at Off.
type Read struct {
	FH  uint64
	Off int64
	N   uint32
}

// Kind implements Message.
func (Read) Kind() Kind { return KRead }

// Data answers a Read. EOF marks the end of file.
type Data struct {
	FH    uint64
	Bytes []byte
	EOF   bool
}

// Kind implements Message.
func (Data) Kind() Kind { return KData }

// Write writes bytes at Off.
type Write struct {
	FH    uint64
	Off   int64
	Bytes []byte
}

// Kind implements Message.
func (Write) Kind() Kind { return KWrite }

// WriteOK acknowledges a Write.
type WriteOK struct {
	FH uint64
	N  uint32
}

// Kind implements Message.
func (WriteOK) Kind() Kind { return KWriteOK }

// Close releases a file handle.
type Close struct {
	FH uint64
}

// Kind implements Message.
func (Close) Kind() Kind { return KClose }

// CloseOK acknowledges a Close.
type CloseOK struct {
	FH uint64
}

// Kind implements Message.
func (CloseOK) Kind() Kind { return KCloseOK }

// Stat queries file metadata.
type Stat struct {
	Path string
}

// Kind implements Message.
func (Stat) Kind() Kind { return KStat }

// StatOK answers a Stat.
type StatOK struct {
	Exists bool
	Size   int64
	Online bool // false while the file sits only in mass storage
}

// Kind implements Message.
func (StatOK) Kind() Kind { return KStatOK }

// Prepare announces files that will be needed soon, spawning parallel
// background look-ups/staging (Section III-B2).
type Prepare struct {
	Paths []string
	Write bool
}

// Kind implements Message.
func (Prepare) Kind() Kind { return KPrepare }

// PrepareOK acknowledges a Prepare; the work continues asynchronously.
type PrepareOK struct {
	Queued uint32
}

// Kind implements Message.
func (PrepareOK) Kind() Kind { return KPrepareOK }

// Unlink removes a file.
type Unlink struct {
	Path string
}

// Kind implements Message.
func (Unlink) Kind() Kind { return KUnlink }

// UnlinkOK acknowledges an Unlink.
type UnlinkOK struct{}

// Kind implements Message.
func (UnlinkOK) Kind() Kind { return KUnlinkOK }

// List asks a data server for the files it holds under a prefix. Scalla
// proper never uses it on the resolution path — global listing is the
// job of the separate Cluster Name Space daemon (paper footnote 3,
// Section V).
type List struct {
	Prefix string
}

// Kind implements Message.
func (List) Kind() Kind { return KList }

// Entry is one row of a ListOK reply.
type Entry struct {
	Path   string
	Size   int64
	Online bool
}

// ListOK answers a List.
type ListOK struct {
	Entries []Entry
}

// Kind implements Message.
func (ListOK) Kind() Kind { return KListOK }

// Trunc resizes an open file.
type Trunc struct {
	FH   uint64
	Size int64
}

// Kind implements Message.
func (Trunc) Kind() Kind { return KTrunc }

// TruncOK acknowledges a Trunc.
type TruncOK struct {
	FH uint64
}

// Kind implements Message.
func (TruncOK) Kind() Kind { return KTruncOK }

// RetryAfter is a shed verdict: the server's dispatch queue is full and
// the request was dropped before reaching a handler. Millis is the
// server's backoff hint — the client should retry (with jitter, against
// any replica) no sooner than roughly that long. It generalizes the
// respq full-delay Wait into an explicit backpressure signal: unlike
// Wait{Millis}, which promises the resource will exist and parks the
// client on a callback, RetryAfter promises nothing and carries no
// server-side state (DESIGN.md §11, FAULTS.md).
type RetryAfter struct {
	Millis uint32
}

// Kind implements Message.
func (RetryAfter) Kind() Kind { return KRetryAfter }

// ---------------------------------------------------------- encoding --

var errTruncated = errors.New("proto: truncated message")

type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) bytes(v []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(len(v)))
	w.b = append(w.b, v...)
}
func (w *writer) str(v string) { w.bytes([]byte(v)) }
func (w *writer) strs(vs []string) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.str(v)
	}
}

type reader struct {
	b   []byte
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.err = errTruncated
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.err = errTruncated
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = errTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) boolean() bool { return r.u8() != 0 }

func (r *reader) bytes() []byte {
	if r.err != nil {
		return nil
	}
	n, sz := binary.Uvarint(r.b)
	if sz <= 0 || uint64(len(r.b)-sz) < n {
		r.err = errTruncated
		return nil
	}
	// Alias rather than copy, as rawBytes32 does; the frame belongs to
	// the decoder's caller (string fields still copy via conversion).
	v := r.b[sz : sz+int(n) : sz+int(n)]
	r.b = r.b[sz+int(n):]
	return v
}

// rawBytes32 reads a fixed-width u32 length followed by that many raw
// bytes — the tail layout of a Data frame. The returned slice aliases
// the frame rather than copying it: every transport's Send copies, so
// a frame handed out by Recv is exclusively the receiver's, and the
// data plane saves one payload-sized copy + allocation per Read.
// Callers that outlive the frame must copy.
func (r *reader) rawBytes32() []byte {
	n := r.u32()
	if r.err != nil || uint64(n) > uint64(len(r.b)) {
		r.err = errTruncated
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) strs() []string {
	n := r.u32()
	if r.err != nil || uint64(n) > uint64(len(r.b)) {
		r.err = errTruncated
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, r.str())
	}
	return out
}

// headerLen is the fixed frame prefix: one kind byte plus the 4-byte
// big-endian stream ID.
const headerLen = 5

// Marshal encodes m on stream 0 into a freshly allocated frame. Hot
// paths that send the frame immediately should prefer MarshalFrame,
// which recycles its buffer through a pool.
func Marshal(m Message) []byte {
	return MarshalStream(m, 0)
}

// MarshalStream encodes m tagged with the given stream ID into a
// freshly allocated frame.
func MarshalStream(m Message, stream uint32) []byte {
	return appendMessage(make([]byte, 0, 64), m, stream)
}

// StreamID extracts the stream ID from an encoded frame without
// decoding the message. Truncated frames report stream 0.
func StreamID(frame []byte) uint32 {
	if len(frame) < headerLen {
		return 0
	}
	return binary.BigEndian.Uint32(frame[1:headerLen])
}

// maxPooledFrame bounds the capacity of buffers kept in the frame pool
// so a single giant frame cannot pin memory forever. It comfortably
// covers a 64 KiB read chunk plus the Data header, so the client's
// default sequential-read chunk stays on the pooled path.
const maxPooledFrame = 128 << 10

// framePool recycles Frame buffers between MarshalFrame and Release.
var framePool = sync.Pool{
	New: func() any { return &Frame{b: make([]byte, 0, 256)} },
}

// Frame is a pooled buffer holding one marshaled message.
//
// Ownership rule: the goroutine that called MarshalFrame owns the frame
// until it calls Release, after which the bytes must not be touched.
// Releasing after transport.Conn.Send returns is safe: every transport
// either writes the frame out synchronously or copies it before
// retaining it (see DESIGN.md, "Concurrency model").
type Frame struct {
	b []byte
}

// Bytes returns the frame's encoded bytes. The slice is only valid
// until Release is called.
func (f *Frame) Bytes() []byte { return f.b }

// Release returns the frame's buffer to the pool. The Frame and the
// slice returned by Bytes must not be used afterwards.
func (f *Frame) Release() {
	if cap(f.b) > maxPooledFrame {
		return
	}
	framePool.Put(f)
}

// GetFrame returns a pooled frame sized to hold n bytes, for receive
// paths that fill it from the wire. The contents are undefined; the
// caller owns the frame and must Release it when done. Frames up to
// maxPooledFrame recycle through the pool, so a warmed receive loop
// allocates nothing.
func GetFrame(n int) *Frame {
	f := framePool.Get().(*Frame)
	if cap(f.b) < n {
		f.b = make([]byte, n)
	} else {
		f.b = f.b[:n]
	}
	return f
}

// CopyFrame copies b into a pooled frame the caller owns — the pooled
// replacement for make-and-copy on transports that must retain a frame
// past Send's return (InProc's peer queue).
func CopyFrame(b []byte) *Frame {
	f := framePool.Get().(*Frame)
	f.b = append(f.b[:0], b...)
	return f
}

// WrapFrame adopts b as a frame's backing buffer without copying. It
// lets pooled-frame consumers accept bytes from an allocating source
// (a transport without a pooled receive path); Release will recycle b
// into the pool, so the caller must own b outright.
func WrapFrame(b []byte) *Frame {
	f := framePool.Get().(*Frame)
	f.b = b
	return f
}

// AliasesFrame reports whether a decoded message's byte fields alias
// the frame it was decoded from — true for Data and Write, whose
// payloads are zero-copy views into the frame (rawBytes32 and bytes
// aliasing above). The frame backing such a message must outlive every
// use of the message, and must not be Released before then; messages of
// every other kind copy what they keep (string conversion copies), so
// their frames may be released immediately after decode.
func AliasesFrame(m Message) bool {
	switch m.(type) {
	case Data, Write:
		return true
	}
	return false
}

// MarshalFrame encodes m on stream 0 into a pooled frame; the caller
// must call Release on the result once the bytes have been handed to a
// transport.
func MarshalFrame(m Message) *Frame {
	return MarshalFrameStream(m, 0)
}

// MarshalFrameStream encodes m tagged with the given stream ID into a
// pooled frame; the caller must call Release on the result once the
// bytes have been handed to a transport.
func MarshalFrameStream(m Message, stream uint32) *Frame {
	f := framePool.Get().(*Frame)
	f.b = appendMessage(f.b[:0], m, stream)
	return f
}

// StartDataFrame begins a single-copy Data frame on the given stream:
// it returns a pooled frame pre-encoded up to the payload, plus a
// payload destination slice of length n for the caller to fill in
// place (typically while holding a store lock, so the bytes are copied
// exactly once). The caller must then call FinishData with the number
// of bytes actually written; releasing an unfinished frame is safe.
func StartDataFrame(stream uint32, fh uint64, n int) (*Frame, []byte) {
	f, w := startFrame(KData, stream)
	w.u64(fh)
	return reservePayload(f, w, n)
}

// StartInlineOpenFrame is StartDataFrame for an inline open: it begins
// an OpenOK with FH 0 and the given size, whose payload slice of
// length n receives the file's bytes. Finish it with FinishData.
func StartInlineOpenFrame(stream uint32, size int64, n int) (*Frame, []byte) {
	f, w := startFrame(KOpenOK, stream)
	w.u64(0) // no handle: the reply carries the file
	w.i64(size)
	return reservePayload(f, w, n)
}

// startFrame takes a pooled frame and writes the header of a kind.
func startFrame(k Kind, stream uint32) (*Frame, writer) {
	f := framePool.Get().(*Frame)
	w := writer{b: f.b[:0]}
	w.u8(uint8(k))
	w.u32(stream)
	return f, w
}

// reservePayload appends to f's header the EOF flag and payload length
// that FinishData patches, then room for n payload bytes, and returns
// f with the payload slice.
func reservePayload(f *Frame, w writer, n int) (*Frame, []byte) {
	w.u8(0)          // EOF, patched by FinishData
	w.u32(uint32(n)) // payload length, patched by FinishData
	head := len(w.b)
	if cap(w.b) < head+n {
		grown := make([]byte, head+n)
		copy(grown, w.b)
		w.b = grown
	} else {
		w.b = w.b[:head+n]
	}
	f.b = w.b
	return f, f.b[head:]
}

// FinishData completes a frame started with StartDataFrame or
// StartInlineOpenFrame: it trims the payload to the n bytes actually
// written and stamps the EOF flag into the header. n must not exceed
// the capacity requested at start.
func (f *Frame) FinishData(n int, eof bool) {
	at := headerLen + 8 // the EOF flag follows Data's FH
	if Kind(f.b[0]) == KOpenOK {
		at += 8 // and OpenOK's Size
	}
	if eof {
		f.b[at] = 1
	}
	binary.BigEndian.PutUint32(f.b[at+1:], uint32(n))
	f.b = f.b[:at+1+4+n]
}

// appendMessage appends m's frame encoding to buf and returns the
// extended slice.
func appendMessage(buf []byte, m Message, stream uint32) []byte {
	w := writer{b: buf}
	w.u8(uint8(m.Kind()))
	w.u32(stream)
	switch v := m.(type) {
	case Login:
		w.u8(uint8(v.Role))
		w.str(v.Name)
		w.str(v.DataAddr)
		w.str(v.CtlAddr)
		w.strs(v.Prefixes)
		w.i64(v.Free)
		w.u32(v.Load)
	case LoginOK:
		w.u8(v.Index)
	case LoginRej:
		w.str(v.Reason)
	case LoginRedirect:
		w.str(v.CtlAddr)
	case Query:
		w.u64(v.QID)
		w.str(v.Path)
		w.u32(v.Hash)
		w.boolean(v.Write)
	case Have:
		w.u64(v.QID)
		w.str(v.Path)
		w.u32(v.Hash)
		w.boolean(v.Pending)
		w.boolean(v.CanWrite)
	case HaveNot:
		w.u64(v.QID)
		w.str(v.Path)
		w.u32(v.Hash)
	case Ping:
	case Pong:
		w.u32(v.Load)
		w.i64(v.Free)
	case Locate:
		w.str(v.Path)
		w.boolean(v.Write)
		w.boolean(v.Create)
		w.boolean(v.Refresh)
		w.str(v.Avoid)
	case Redirect:
		w.str(v.Addr)
		w.str(v.CtlAddr)
		w.boolean(v.Pending)
	case Wait:
		w.u32(v.Millis)
	case Err:
		w.u32(v.Code)
		w.str(v.Msg)
	case Open:
		w.str(v.Path)
		w.boolean(v.Write)
		w.boolean(v.Create)
		w.u32(v.Inline)
	case OpenOK:
		// Inline bytes go last, behind a fixed-width length, as in Data,
		// so StartInlineOpenFrame can fill them in place.
		w.u64(v.FH)
		w.i64(v.Size)
		w.boolean(v.EOF)
		w.u32(uint32(len(v.Bytes)))
		w.b = append(w.b, v.Bytes...)
	case Read:
		w.u64(v.FH)
		w.i64(v.Off)
		w.u32(v.N)
	case Data:
		// Data places the payload last, behind a fixed-width length, so
		// StartDataFrame can reserve the header and fill the payload in
		// place — the layouts must stay identical.
		w.u64(v.FH)
		w.boolean(v.EOF)
		w.u32(uint32(len(v.Bytes)))
		w.b = append(w.b, v.Bytes...)
	case Write:
		w.u64(v.FH)
		w.i64(v.Off)
		w.bytes(v.Bytes)
	case WriteOK:
		w.u64(v.FH)
		w.u32(v.N)
	case Close:
		w.u64(v.FH)
	case CloseOK:
		w.u64(v.FH)
	case Stat:
		w.str(v.Path)
	case StatOK:
		w.boolean(v.Exists)
		w.i64(v.Size)
		w.boolean(v.Online)
	case Prepare:
		w.strs(v.Paths)
		w.boolean(v.Write)
	case PrepareOK:
		w.u32(v.Queued)
	case Unlink:
		w.str(v.Path)
	case UnlinkOK:
	case List:
		w.str(v.Prefix)
	case ListOK:
		w.u32(uint32(len(v.Entries)))
		for _, e := range v.Entries {
			w.str(e.Path)
			w.i64(e.Size)
			w.boolean(e.Online)
		}
	case Trunc:
		w.u64(v.FH)
		w.i64(v.Size)
	case TruncOK:
		w.u64(v.FH)
	case RetryAfter:
		w.u32(v.Millis)
	default:
		panic(fmt.Sprintf("proto: unknown message %T", m))
	}
	return w.b
}

// Unmarshal decodes one frame, discarding its stream ID.
func Unmarshal(frame []byte) (Message, error) {
	m, _, err := UnmarshalStream(frame)
	return m, err
}

// UnmarshalStream decodes one frame and reports the stream ID it was
// tagged with.
func UnmarshalStream(frame []byte) (Message, uint32, error) {
	if len(frame) < headerLen {
		return nil, 0, errTruncated
	}
	stream := binary.BigEndian.Uint32(frame[1:headerLen])
	r := reader{b: frame[headerLen:]}
	var m Message
	switch Kind(frame[0]) {
	case KLogin:
		m = Login{
			Role: Role(r.u8()), Name: r.str(), DataAddr: r.str(),
			CtlAddr: r.str(), Prefixes: r.strs(), Free: r.i64(), Load: r.u32(),
		}
	case KLoginOK:
		m = LoginOK{Index: r.u8()}
	case KLoginRej:
		m = LoginRej{Reason: r.str()}
	case KLoginRedirect:
		m = LoginRedirect{CtlAddr: r.str()}
	case KQuery:
		m = Query{QID: r.u64(), Path: r.str(), Hash: r.u32(), Write: r.boolean()}
	case KHave:
		m = Have{QID: r.u64(), Path: r.str(), Hash: r.u32(), Pending: r.boolean(), CanWrite: r.boolean()}
	case KHaveNot:
		m = HaveNot{QID: r.u64(), Path: r.str(), Hash: r.u32()}
	case KPing:
		m = Ping{}
	case KPong:
		m = Pong{Load: r.u32(), Free: r.i64()}
	case KLocate:
		m = Locate{Path: r.str(), Write: r.boolean(), Create: r.boolean(), Refresh: r.boolean(), Avoid: r.str()}
	case KRedirect:
		m = Redirect{Addr: r.str(), CtlAddr: r.str(), Pending: r.boolean()}
	case KWait:
		m = Wait{Millis: r.u32()}
	case KErr:
		m = Err{Code: r.u32(), Msg: r.str()}
	case KOpen:
		m = Open{Path: r.str(), Write: r.boolean(), Create: r.boolean(), Inline: r.u32()}
	case KOpenOK:
		o := OpenOK{FH: r.u64(), Size: r.i64(), EOF: r.boolean()}
		// Copy rather than alias: the client keeps an inline file for
		// its whole life, so OpenOK stays out of AliasesFrame and its
		// frame can be released right after decode.
		if b := r.rawBytes32(); len(b) > 0 {
			o.Bytes = append(make([]byte, 0, len(b)), b...)
		}
		m = o
	case KRead:
		m = Read{FH: r.u64(), Off: r.i64(), N: r.u32()}
	case KData:
		d := Data{FH: r.u64(), EOF: r.boolean()}
		d.Bytes = r.rawBytes32()
		m = d
	case KWrite:
		m = Write{FH: r.u64(), Off: r.i64(), Bytes: r.bytes()}
	case KWriteOK:
		m = WriteOK{FH: r.u64(), N: r.u32()}
	case KClose:
		m = Close{FH: r.u64()}
	case KCloseOK:
		m = CloseOK{FH: r.u64()}
	case KStat:
		m = Stat{Path: r.str()}
	case KStatOK:
		m = StatOK{Exists: r.boolean(), Size: r.i64(), Online: r.boolean()}
	case KPrepare:
		m = Prepare{Paths: r.strs(), Write: r.boolean()}
	case KPrepareOK:
		m = PrepareOK{Queued: r.u32()}
	case KUnlink:
		m = Unlink{Path: r.str()}
	case KUnlinkOK:
		m = UnlinkOK{}
	case KList:
		m = List{Prefix: r.str()}
	case KListOK:
		n := r.u32()
		if r.err != nil || uint64(n) > uint64(len(r.b)) {
			return nil, 0, errTruncated
		}
		entries := make([]Entry, 0, n)
		for i := uint32(0); i < n; i++ {
			entries = append(entries, Entry{Path: r.str(), Size: r.i64(), Online: r.boolean()})
		}
		m = ListOK{Entries: entries}
	case KTrunc:
		m = Trunc{FH: r.u64(), Size: r.i64()}
	case KTruncOK:
		m = TruncOK{FH: r.u64()}
	case KRetryAfter:
		m = RetryAfter{Millis: r.u32()}
	default:
		return nil, 0, fmt.Errorf("proto: unknown kind %d", frame[0])
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return m, stream, nil
}
