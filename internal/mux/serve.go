package mux

import (
	"scalla/internal/obs"
	"scalla/internal/proto"
	"scalla/internal/transport"
)

// Handler processes one decoded request. Returning a non-nil message
// sends it as the stream-tagged reply; returning nil sends nothing —
// either the request wants no reply, or the handler already replied
// itself through the Responder (the single-copy Data path).
//
// Requests decode from pooled frames that the scheduler recycles as
// soon as the handler returns: a handler must not retain m — or any
// byte slice decoded from it (proto.Write.Bytes aliases the frame) —
// past its own return. Copy what must outlive the call.
type Handler func(m proto.Message, r Responder) proto.Message

// ServeOptions tunes one connection's dispatch loop.
type ServeOptions struct {
	// Tracer records one span per dispatched request (kind, stream,
	// reply) when enabled. Default: no tracing.
	Tracer *obs.Tracer
	// OnError, if set, receives frame decode errors before the loop
	// stops serving the connection.
	OnError func(err error)
}

// Responder sends stream-tagged replies for one in-flight request.
// Concurrent workers write straight to the connection — transport.Conn
// Send is safe for any number of concurrent callers, and on the TCP
// transport overlapping repliers coalesce into shared vectored-write
// batches rather than queueing on a lock.
type Responder struct {
	conn transport.Conn
	sid  uint32
}

// Stream returns the stream ID of the request being answered, which
// every reply must echo.
func (r Responder) Stream() uint32 { return r.sid }

// Send marshals m tagged with the request's stream and writes it out.
func (r Responder) Send(m proto.Message) error {
	return transport.SendMessageStream(r.conn, m, r.sid)
}

// SendFrame writes a pre-marshaled pooled frame — which the caller
// must already have tagged with Stream() — and releases it. This is
// the single-copy read path: the payload is marshaled straight into
// the frame and never copied again.
func (r Responder) SendFrame(f *proto.Frame) error {
	err := r.conn.Send(f.Bytes())
	f.Release()
	return err
}

// Serve reads frames from conn and hands them to the scheduler, whose
// workers run h, until the connection fails or a frame fails to
// decode. Replies are written out of order, tagged by stream; overflow
// is shed with a RetryAfter reply rather than blocking the reader.
// Serve returns only after every in-flight handler for conn has
// finished, so callers may release per-connection state afterward.
func (s *Scheduler) Serve(conn transport.Conn, h Handler, opt ServeOptions) {
	c := s.register(conn, h, opt)
	defer s.unregister(c)
	for {
		f, err := conn.RecvFrame()
		if err != nil {
			return
		}
		m, sid, err := proto.UnmarshalStream(f.Bytes())
		if err != nil {
			f.Release()
			if opt.OnError != nil {
				opt.OnError(err)
			}
			return
		}
		if shedded, millis := s.enqueue(c, m, sid, f); shedded {
			f.Release()
			// Best effort: if the conn is failing the reader sees it.
			_ = transport.SendMessageStream(conn, proto.RetryAfter{Millis: millis}, sid)
		}
	}
}
