package main

import (
	"image"
	"sync"
	"sync/atomic"

	"appshare/internal/ah"
	"appshare/internal/codec"
)

// Timing wrappers around the program's extension points. Each forwards
// every call unchanged and exposes exactly the interfaces of what it wraps,
// so the host and relay take the same code paths with or without them.

// codecStats counts one side's (encode or decode) codec work.
type codecStats struct {
	calls, ns, px, bytes atomic.Int64
}

// timedCodec wraps a codec.Codec registered in a host's or participant's
// Registry.
type timedCodec struct {
	codec.Codec
	tr  *tracer
	enc *codecStats
	dec *codecStats
}

func (c timedCodec) Encode(img *image.RGBA) ([]byte, error) {
	start := c.tr.begin()
	out, err := c.Codec.Encode(img)
	if start >= 0 {
		c.tr.end("codec.encode", start, false)
		c.enc.calls.Add(1)
		c.enc.ns.Add(c.tr.now() - start)
		c.enc.px.Add(int64(img.Rect.Dx() * img.Rect.Dy()))
		c.enc.bytes.Add(int64(len(out)))
	}
	return out, err
}

func (c timedCodec) Decode(data []byte) (*image.RGBA, error) {
	start := c.tr.begin()
	img, err := c.Codec.Decode(data)
	if start >= 0 {
		c.tr.end("codec.decode", start, false)
		c.dec.calls.Add(1)
		c.dec.ns.Add(c.tr.now() - start)
		c.dec.bytes.Add(int64(len(data)))
		if img != nil {
			c.dec.px.Add(int64(img.Rect.Dx() * img.Rect.Dy()))
		}
	}
	return img, err
}

// timedRegistry returns the default codec registry with every codec wrapped.
func timedRegistry(tr *tracer, enc, dec *codecStats) *codec.Registry {
	def := codec.DefaultRegistry()
	reg, _ := codec.NewRegistry() // an empty registry cannot fail
	for _, pt := range def.PayloadTypes() {
		c, err := def.Lookup(pt)
		if err != nil {
			panic(err) // PayloadTypes lists only registered types
		}
		if err := reg.Register(pt, timedCodec{Codec: c, tr: tr, enc: enc, dec: dec}); err != nil {
			panic(err) // distinct types from a valid registry
		}
	}
	return reg
}

// timedForwarder wraps the relay the host publishes batches to.
type timedForwarder struct {
	f  ah.Forwarder
	tr *tracer
}

func (f *timedForwarder) ForwardBatch(id uint32, msgs []ah.PreparedPayload) error {
	s := f.tr.openForward()
	err := f.f.ForwardBatch(id, msgs)
	f.tr.closeForward("relay.forward", s)
	return err
}

func (f *timedForwarder) ForwardRefresh(id uint32, msgs []ah.PreparedPayload) error {
	s := f.tr.openForward()
	err := f.f.ForwardRefresh(id, msgs)
	f.tr.closeForward("relay.forward_refresh", s)
	return err
}

// timedUpstream is the relay.Upstream handed to the relay: it attaches a
// timedForwarder around the relay and counts the relay's refill requests.
type timedUpstream struct {
	h        *ah.Host
	tr       *tracer
	requests atomic.Int64
	mu       sync.Mutex
	wrapped  map[ah.Forwarder]*timedForwarder
}

func newTimedUpstream(h *ah.Host, tr *tracer) *timedUpstream {
	return &timedUpstream{h: h, tr: tr, wrapped: map[ah.Forwarder]*timedForwarder{}}
}

func (u *timedUpstream) AttachForwarder(f ah.Forwarder) {
	tf := &timedForwarder{f: f, tr: u.tr}
	u.mu.Lock()
	u.wrapped[f] = tf
	u.mu.Unlock()
	u.h.AttachForwarder(tf)
}

func (u *timedUpstream) DetachForwarder(f ah.Forwarder) {
	u.mu.Lock()
	tf := u.wrapped[f]
	delete(u.wrapped, f)
	u.mu.Unlock()
	if tf != nil {
		u.h.DetachForwarder(tf)
	}
}

func (u *timedUpstream) RequestStreamRefresh(id uint32) {
	u.requests.Add(1)
	u.h.RequestStreamRefresh(id)
}

func (u *timedUpstream) StreamID() uint32 { return u.h.StreamID() }
