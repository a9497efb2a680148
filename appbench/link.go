package main

import (
	"encoding/binary"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"appshare/internal/core"
	"appshare/internal/transport"
)

// link is the transport.PacketConn the benchmark hands to AttachPacketConn
// (host or relay) for one viewer. It counts and times every send, follows
// the viewer's RTP sequence space, optionally drops a seeded share of
// datagrams (the viewer's lossy path), and passes the survivors to inner:
// a Pipe to a witness Participant, a loopback UDP socket, or nothing for an
// in-process sink viewer.
type link struct {
	inner transport.PacketConn // nil: sink, datagrams end here
	tr    *tracer
	relay bool // attached to the relay rather than the host

	loss float64
	rng  *rand.Rand // drop decisions; nil when lossless

	done      chan struct{}
	closeOnce sync.Once

	mu sync.Mutex
	// started is set by the first datagram; base is its extended sequence
	// number and high the highest fresh one sent since.
	started    bool
	base, high int64
	// missing holds the sequence numbers this viewer lacks: dropped on the
	// path or skipped by the sender, and not yet repaired.
	missing map[int64]struct{}
	rtp     rtpCounters
	// Join tracking: from joinAt until every datagram from the first
	// WindowManagerInfo (the start of a refresh) onward is held.
	joining      bool
	joinAt       time.Time
	joinBucket   int32
	refreshStart int64
}

// rtpCounters are what the host or relay handed to transport for one
// viewer (send calls, datagrams, bytes) and the viewer-side RTP statistics.
type rtpCounters struct {
	calls, dgrams, bytes                                int64
	received, duplicates, retransmits, nacked, repaired int64
}

func newLink(inner transport.PacketConn, tr *tracer, loss float64, seed int64) *link {
	l := &link{inner: inner, tr: tr, loss: loss, done: make(chan struct{}),
		missing: map[int64]struct{}{}, refreshStart: -1}
	if loss > 0 {
		l.rng = rand.New(rand.NewSource(seed))
	}
	return l
}

// conn returns l as the PacketConn to attach: it implements
// transport.BatchSender exactly when inner does (sinks always do).
func (l *link) conn() transport.PacketConn {
	if l.inner == nil {
		return batchLink{l}
	}
	if _, ok := l.inner.(transport.BatchSender); ok {
		return batchLink{l}
	}
	return l
}

type batchLink struct{ *link }

func (l *link) spanName() string {
	if l.relay {
		return "transport.send_relay"
	}
	return "transport.send"
}

func (l *link) Send(pkt []byte) error {
	start := l.tr.begin()
	l.mu.Lock()
	l.rtp.calls++
	l.rtp.dgrams++
	l.rtp.bytes += int64(len(pkt))
	keep := l.trackLocked(pkt)
	l.mu.Unlock()
	var err error
	if keep && l.inner != nil {
		err = l.inner.Send(pkt)
	}
	l.tr.end(l.spanName(), start, l.relay)
	return err
}

func (b batchLink) SendBatch(pkts [][]byte) (int, error) {
	l := b.link
	start := l.tr.begin()
	defer l.tr.end(l.spanName(), start, l.relay)
	var keep [][]byte
	var idx []int
	l.mu.Lock()
	l.rtp.calls++
	l.rtp.dgrams += int64(len(pkts))
	for i, p := range pkts {
		l.rtp.bytes += int64(len(p))
		if l.trackLocked(p) && l.inner != nil {
			keep = append(keep, p)
			idx = append(idx, i)
		}
	}
	l.mu.Unlock()
	if len(keep) == 0 {
		return len(pkts), nil
	}
	// Datagrams dropped on the path count as accepted, as UDP would; a
	// refusal by the transport is reported at its index in pkts.
	sent, err := l.inner.(transport.BatchSender).SendBatch(keep)
	if err != nil && sent < len(keep) {
		return idx[sent], err
	}
	return len(pkts), err
}

func (l *link) Recv() ([]byte, error) {
	if l.inner != nil {
		return l.inner.Recv()
	}
	<-l.done
	return nil, io.EOF
}

func (l *link) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.done)
		if l.inner != nil {
			err = l.inner.Close()
		}
	})
	return err
}

// trackLocked follows one datagram through the viewer's sequence space and
// reports whether it survives the path.
func (l *link) trackLocked(pkt []byte) bool {
	if len(pkt) < 12 {
		return true
	}
	seq := binary.BigEndian.Uint16(pkt[2:4])
	if !l.started {
		l.started = true
		l.base, l.high = int64(seq), int64(seq)-1
	}
	ext := l.high + int64(int16(seq-uint16(l.high)))
	fresh := ext > l.high
	if fresh {
		for s := l.high + 1; s < ext; s++ {
			l.missing[s] = struct{}{}
		}
		l.high = ext
	} else {
		l.rtp.retransmits++
	}
	if l.rng != nil && l.rng.Float64() < l.loss {
		if fresh {
			l.missing[ext] = struct{}{}
		}
		return false
	}
	if !fresh {
		if _, ok := l.missing[ext]; ok {
			delete(l.missing, ext)
			l.rtp.repaired++
		} else {
			l.rtp.duplicates++
		}
	}
	l.rtp.received++
	if l.joining && l.refreshStart < 0 {
		off := 12 + 4*int(pkt[0]&0x0f)
		if len(pkt) > off && core.MessageType(pkt[off]) == core.TypeWindowManagerInfo {
			l.refreshStart = ext
		}
	}
	return true
}

// startJoin marks the viewer as joining from now, in the given sub-window.
func (l *link) startJoin(now time.Time, bucket int32) {
	l.mu.Lock()
	l.joining, l.joinAt, l.joinBucket, l.refreshStart = true, now, bucket, -1
	l.mu.Unlock()
}

func (l *link) isJoining() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.joining
}

// joined reports the join latency, and the sub-window the join started in,
// once the viewer holds a complete refresh.
func (l *link) joined(now time.Time) (time.Duration, int32, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.joining || l.refreshStart < 0 {
		return 0, 0, false
	}
	for s := range l.missing {
		if s >= l.refreshStart {
			return 0, 0, false
		}
	}
	l.joining = false
	return now.Sub(l.joinAt), l.joinBucket, true
}

// lost returns up to limit missing sequence numbers, oldest first, and
// counts them as NACKed.
func (l *link) lost(limit int) []uint16 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.missing) == 0 {
		return nil
	}
	ext := make([]int64, 0, len(l.missing))
	for s := range l.missing {
		ext = append(ext, s)
	}
	sort.Slice(ext, func(i, j int) bool { return ext[i] < ext[j] })
	if len(ext) > limit {
		ext = ext[:limit]
	}
	out := make([]uint16, len(ext))
	for i, s := range ext {
		out[i] = uint16(s)
	}
	l.rtp.nacked += int64(len(out))
	return out
}

// position returns the first and highest extended sequence numbers sent.
func (l *link) position() (base, high int64, started bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base, l.high, l.started
}

// contiguous reports whether the viewer holds every datagram sent so far.
func (l *link) contiguous() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.missing) == 0
}

func (l *link) counters() rtpCounters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rtp
}
