package main

import (
	"encoding/binary"
	"image/color"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"appshare/internal/hip"
	"appshare/internal/participant"
	"appshare/internal/rtcp"
)

// witness is a real Participant whose renders are checked against the
// host's windows and timed: it gives update latency (tick due time to the
// moment it has applied every datagram the host sent it for that tick) and,
// for the one that clicks, click-to-photon latency.
type witness struct {
	name string
	p    *participant.Participant
	host *link // the host- or relay-side link that feeds it
	send func([]byte) error
	recv func() ([]byte, error)
	// closeView closes the viewer's end of its path, ending recv.
	closeView func() error
	tr        *tracer

	viewer *viewer

	nacks, plis, hip atomic.Int64 // feedback and HIP packets sent

	stop  chan struct{}
	wg    sync.WaitGroup
	frame chan struct{}

	mu       sync.Mutex
	started  bool
	contig   int64 // every sequence number up to contig has been handled
	ahead    map[int64]struct{}
	applied  []int64 // ring of the time each sequence number became contiguous
	pending  []tickDue
	lastSent int64   // highest sequence number a recorded tick ended at
	lats     samples // update latencies (ms) per sub-window
	// Click probing: the pixel of the button as last rendered, and the
	// probe in flight.
	button     buttonSpot
	lastPixel  color.RGBA
	probeOn    bool
	probeWant  color.RGBA
	probeStart time.Time
	probeDone  chan time.Duration
	probes     []probeResult
}

// tickDue is one tick awaiting its last datagram at the witness.
type tickDue struct {
	last   int64
	due    time.Time
	bucket int32
}

// buttonSpot locates the toggle button the witness clicks and watches.
type buttonSpot struct {
	win  uint16
	x, y int // desktop coordinates inside the button
	px   int // window-relative pixel watched
	py   int
}

var (
	buttonOn  = color.RGBA{0x30, 0xC8, 0x30, 0xFF}
	buttonOff = color.RGBA{0xC8, 0x30, 0x30, 0xFF}
)

const appliedRing = 1 << 16

func newWitness(name string, p *participant.Participant, host *link, tr *tracer,
	send func([]byte) error, recv func() ([]byte, error)) *witness {
	return &witness{name: name, p: p, host: host, tr: tr, send: send, recv: recv,
		stop: make(chan struct{}), frame: make(chan struct{}, 1),
		ahead: map[int64]struct{}{}, applied: make([]int64, appliedRing), lats: samples{}, lastSent: -1,
		probeDone: make(chan time.Duration, 1)}
}

// start runs the receive and render goroutines; close stops them.
func (w *witness) start() {
	w.wg.Add(2)
	go w.receive()
	go w.render()
}

// close closes the viewer's end of its path and waits for the goroutines.
func (w *witness) close() {
	_ = w.closeView()
	close(w.stop)
	w.wg.Wait()
}

func (w *witness) receive() {
	defer w.wg.Done()
	for {
		pkt, err := w.recv()
		if err != nil {
			return
		}
		if len(pkt) >= 2 && pkt[1] >= 200 && pkt[1] <= 207 {
			_, _ = w.p.HandleRTCP(pkt)
			continue
		}
		start := w.tr.begin()
		_ = w.p.HandlePacket(pkt) // a stray packet is counted by the participant
		w.tr.end("participant.handle", start, false)
		if len(pkt) >= 4 {
			w.onHandled(binary.BigEndian.Uint16(pkt[2:4]))
		}
	}
}

// onHandled advances the contiguous point and completes every tick whose
// last datagram is now covered.
func (w *witness) onHandled(seq uint16) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		base, _, _ := w.host.position()
		w.contig, w.started = base-1, true
	}
	ext := w.contig + int64(int16(seq-uint16(w.contig)))
	if ext <= w.contig {
		return
	}
	w.ahead[ext] = struct{}{}
	advanced := false
	for {
		if _, ok := w.ahead[w.contig+1]; !ok {
			break
		}
		delete(w.ahead, w.contig+1)
		w.contig++
		w.applied[w.contig%appliedRing] = now.UnixNano()
		advanced = true
	}
	if !advanced {
		return
	}
	done := 0
	for _, t := range w.pending {
		if t.last > w.contig {
			break
		}
		w.lats.add(t.bucket, ms(now.Sub(t.due)))
		done++
	}
	if done > 0 {
		w.pending = w.pending[done:]
		w.signalFrame()
	}
}

// tickSent records that the host finished sending a tick to this witness;
// last is the highest sequence number sent to it so far.
func (w *witness) tickSent(last int64, due time.Time, bucket int32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if last <= w.lastSent {
		return // nothing new was sent this tick
	}
	w.lastSent = last
	if !w.started || last > w.contig {
		w.pending = append(w.pending, tickDue{last: last, due: due, bucket: bucket})
		return
	}
	if w.contig-last < appliedRing {
		w.lats.add(bucket, ms(time.Duration(w.applied[last%appliedRing]-due.UnixNano())))
	}
	w.signalFrame()
}

func (w *witness) signalFrame() {
	select {
	case w.frame <- struct{}{}:
	default:
	}
}

// caughtUp reports whether the witness has handled every datagram sent.
func (w *witness) caughtUp() bool {
	_, high, started := w.host.position()
	w.mu.Lock()
	defer w.mu.Unlock()
	return !started || (w.started && w.contig >= high)
}

// render composites the participant screen once per completed tick, as a
// viewer presents a frame, and resolves the click probe in flight.
func (w *witness) render() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case <-w.frame:
		}
		start := w.tr.begin()
		img := w.p.Render()
		w.tr.end("participant.render", start, false)
		now := time.Now()
		w.mu.Lock()
		b := w.button
		w.mu.Unlock()
		if b.win == 0 {
			continue
		}
		place, ok := w.p.WindowPlacement(b.win)
		if !ok {
			continue
		}
		px := img.RGBAAt(place.Left+b.px, place.Top+b.py)
		w.mu.Lock()
		w.lastPixel = px
		if w.probeOn && px == w.probeWant {
			w.probeOn = false
			w.probeDone <- now.Sub(w.probeStart)
		}
		w.mu.Unlock()
	}
}

// probeResult is one click probe's outcome.
type probeResult struct {
	lat    time.Duration
	ok     bool
	bucket int32
}

// clickProbes clicks the button at seeded instants spread over the tick
// period, one probe at a time, until stop closes. Each probe waits for the
// render that shows the toggled button, up to timeout.
func (w *witness) clickProbes(seed int64, period, timeout time.Duration, bucket func() int32) {
	defer w.wg.Done()
	rng := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-w.stop:
			return
		case <-time.After(period + time.Duration(rng.Int63n(int64(period)))):
		}
		w.mu.Lock()
		b := w.button
		want := buttonOn
		if w.lastPixel == buttonOn {
			want = buttonOff
		}
		w.probeOn, w.probeWant, w.probeStart = true, want, time.Now()
		w.mu.Unlock()
		r := probeResult{bucket: bucket()}
		if err := w.click(b); err == nil {
			select {
			case <-w.stop:
				return
			case r.lat = <-w.probeDone:
				r.ok = true
			case <-time.After(timeout):
			}
		}
		w.mu.Lock()
		if w.probeOn {
			w.probeOn = false
		} else if !r.ok {
			r.lat, r.ok = <-w.probeDone, true // observed as the timeout fired
		}
		w.probes = append(w.probes, r)
		w.mu.Unlock()
	}
}

// click sends a HIP press and release over the witness's upstream path.
func (w *witness) click(b buttonSpot) error {
	press, err := w.p.MousePress(b.win, b.x, b.y, hip.ButtonLeft)
	if err != nil {
		return err
	}
	release, err := w.p.MouseRelease(b.win, b.x, b.y, hip.ButtonLeft)
	if err != nil {
		return err
	}
	w.hip.Add(2)
	if err := w.send(press); err != nil {
		return err
	}
	return w.send(release)
}

// sendPLI announces the witness to its host or relay.
func (w *witness) sendPLI() error {
	pli, err := w.p.BuildPLI()
	if err != nil {
		return err
	}
	w.plis.Add(1)
	return w.send(pli)
}

// nackParticipant sends the participant's own NACK for the gaps it has
// seen, over its upstream path (the UDP viewers' repair).
func (w *witness) nackParticipant() error {
	nack, err := w.p.BuildNACK()
	if err != nil || nack == nil {
		return err
	}
	w.nacks.Add(1)
	return w.send(nack)
}

func (w *witness) hostHigh() int64 {
	_, high, _ := w.host.position()
	return high
}

// tailLost lists up to limit datagrams sent to the witness that it has not
// handled: the repair a UDP viewer can only ask for once nothing more is
// in flight.
func (w *witness) tailLost(limit int) []uint16 {
	_, high, started := w.host.position()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !started || !w.started {
		return nil
	}
	var out []uint16
	for s := w.contig + 1; s <= high && len(out) < limit; s++ {
		if _, ok := w.ahead[s]; !ok {
			out = append(out, uint16(s))
		}
	}
	return out
}

// results returns the update latencies and probe outcomes recorded so far.
func (w *witness) results() (samples, []probeResult) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lats := samples{}
	for b, v := range w.lats {
		lats[b] = append([]float64(nil), v...)
	}
	return lats, append([]probeResult(nil), w.probes...)
}

// buildNACK encodes a Generic NACK for the given sequence numbers.
func buildNACK(lost []uint16) []byte {
	pkt, err := rtcp.Marshal(&rtcp.NACK{Pairs: rtcp.BuildNACKPairs(lost)})
	if err != nil {
		panic(err) // a NACK of valid pairs always encodes
	}
	return pkt
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
