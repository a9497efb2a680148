package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"appshare"
	"appshare/internal/ah"
	"appshare/internal/apps"
	"appshare/internal/capture"
	"appshare/internal/display"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/relay"
	"appshare/internal/rtcp"
	"appshare/internal/transport"
)

// viewer is one in-process sink viewer, attached to the host or the relay.
type viewer struct {
	l *link
	r *ah.Remote
	v *relay.Viewer
}

// session is one set-up instance of a workload: desktop, host, optional
// relay, sink viewers and witnesses.
type session struct {
	b    *bench
	sp   *spec
	desk *display.Desktop
	host *ah.Host
	up   *timedUpstream
	rl   *relay.Relay
	step func()
	// transport is the witnesses' path as run: sp.transport, or the
	// socket the UDP viewers fell back to.
	transport string

	direct, edge []*viewer
	witnesses    []*witness
	udp          []*udpViewer
	joining      []*viewer
	probes       []*viewer // join probes not yet retired
	probeTries   int       // join probes started, or all of them once cut by the deadline
	probesEnd    time.Time // when the last join probe was retired
	nextID       int
	churnRNG     *rand.Rand
	leaveAcc     float64
	retired      rtpCounters // counters of viewers that left
	evictions    atomic.Int64

	// bucket numbers the measured sub-windows from 1; 0 is warm-up and
	// the time after the measured window.
	bucket    atomic.Int32
	ticks     samples // Host.Tick wall time (ms)
	lags      samples // how late each measured tick started (ms)
	joins     samples // join latencies (ms)
	joinTries map[int32]int
	tickFails int

	gates              []string // failed correctness gates
	checks, checkFails int      // convergence and contiguity checks
}

// udpViewer reads a viewer's socket on its own goroutine, so a slow decode
// does not leave datagrams in the kernel buffer. The socket is loopback
// UDP, with the host's end behind the repo's UDPAdapter, or, where no
// loopback interface is up (a network namespace of its own), a Unix
// datagram socket pair; kind names which.
type udpViewer struct {
	host transport.PacketConn // the host's end, handed to AttachPacketConn
	view net.Conn
	kind string
	ch   chan []byte
	done chan struct{}
}

// pliFor encodes the PLI a joining viewer announces itself with.
func pliFor(ssrc uint32) []byte {
	pkt, err := rtcp.Marshal(&rtcp.PLI{SenderSSRC: 1, MediaSSRC: ssrc})
	if err != nil {
		panic(err) // a PLI always encodes
	}
	return pkt
}

// setup builds one instance and returns it once every viewer holds its
// first full refresh.
func (b *bench) setup(sp *spec, inst int) (*session, error) {
	seed := b.opt.seed
	s := &session{b: b, sp: sp, transport: sp.transport, churnRNG: rand.New(rand.NewSource(seed*7 + 3)),
		ticks: samples{}, lags: samples{}, joins: samples{}, joinTries: map[int32]int{}}
	var btn buttonSpot
	s.desk, s.step, btn = sp.content(seed)
	s.desk.ShareAll()
	host, err := ah.New(ah.Config{
		Desktop:         s.desk,
		Capture:         capture.Options{Registry: timedRegistry(b.tr, &b.enc, &b.dec)},
		Retransmissions: true,
		RetransLog:      sp.retransLog,
		Entropy:         b.entropy(seed*1000 + int64(inst)),
		OnEvict:         func(ah.RemoteHealth) { s.evictions.Add(1) },
	})
	if err != nil {
		return nil, fmt.Errorf("new host: %w", err)
	}
	s.host = host
	if sp.edgeSinks > 0 {
		s.up = newTimedUpstream(host, b.tr)
		s.rl = relay.New(relay.Config{RefreshEvery: 2 * sp.fps, Shards: runtime.GOMAXPROCS(0), RetransLog: sp.retransLog,
			Entropy: b.entropy(seed*1000 + 500 + int64(inst))})
		if err := s.rl.AttachUpstream(s.up, true); err != nil {
			return nil, fmt.Errorf("attach relay: %w", err)
		}
		if err := host.Tick(); err != nil { // seeds the relay's refresh cache
			return nil, fmt.Errorf("seed relay: %w", err)
		}
	}
	// Witnesses first, so the clicking one is direct to the host.
	for i := 0; i < sp.witnesses; i++ {
		w, err := s.addWitness(i, btn)
		if err != nil {
			return nil, err
		}
		s.witnesses = append(s.witnesses, w)
	}
	for i := 0; i < sp.sinks; i++ {
		if _, err := s.join(false, time.Now(), 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sp.edgeSinks; i++ {
		if _, err := s.join(true, time.Now(), 0); err != nil {
			return nil, err
		}
	}
	if err := host.Tick(); err != nil {
		return nil, fmt.Errorf("first tick: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.repair(false)
		s.checkJoins(time.Now(), samples{})
		ready := len(s.joining) == 0
		for _, w := range s.witnesses {
			if w.p.NeedsRefresh() || !w.caughtUp() {
				ready = false
			}
		}
		if ready {
			return s, nil
		}
		if time.Now().After(deadline) {
			return nil, errors.New("set-up: viewers did not receive their first refresh")
		}
		// A witness's PLI travels its path and is served at the next tick;
		// tick without drawing until everyone is painted.
		if err := host.Tick(); err != nil {
			return nil, fmt.Errorf("set-up tick: %w", err)
		}
		for _, w := range s.witnesses {
			w.tickSent(w.hostHigh(), time.Now(), 0)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// probeJoin attaches one join probe on workloads without churn, during
// the warm-up. Probes join at fixed phases late in the tick period, so
// the wait for the next tick (which serves the refresh) is the same in
// every run; they leave once they hold their refresh.
func (s *session) probeJoin(k int64, due time.Time) error {
	period := time.Second / time.Duration(s.sp.fps)
	at := due.Add(period / 2 * time.Duration(10+k%8) / 10)
	if d := time.Until(at); d > 0 {
		time.Sleep(d)
	}
	v, err := s.join(false, time.Now(), 0)
	if err != nil {
		return err
	}
	s.probes = append(s.probes, v)
	s.probeTries++
	return nil
}

// retireProbes detaches the probes that hold their refresh, and with all
// set also those still joining, which then never complete.
func (s *session) retireProbes(all bool) {
	kept := s.probes[:0]
	for _, v := range s.probes {
		if v.l.isJoining() && !all {
			kept = append(kept, v)
			continue
		}
		for i, d := range s.direct {
			if d == v {
				s.direct = append(s.direct[:i], s.direct[i+1:]...)
				break
			}
		}
		s.leave(v)
	}
	s.probes = kept
}

// addWitness attaches witness i: over loopback UDP on UDP workloads,
// otherwise over an in-process Pipe behind the workload's loss; on relay
// workloads every odd witness sits behind the relay.
func (s *session) addWitness(i int, btn buttonSpot) (*witness, error) {
	b, sp := s.b, s.sp
	w, h := s.desk.Size()
	p := participant.New(participant.Config{ScreenWidth: w, ScreenHeight: h,
		Registry: timedRegistry(b.tr, &b.enc, &b.dec),
		Entropy:  b.entropy(b.opt.seed*1000 + 900 + int64(i))})
	var (
		inner      transport.PacketConn
		send       func([]byte) error
		recv       func() ([]byte, error)
		closeView  func() error
		viaRelay   = sp.edgeSinks > 0 && i%2 == 1
		loss       = sp.loss
		witnessSeq = b.opt.seed*7919 + int64(s.nextID)
	)
	s.nextID++
	if sp.udp {
		u, err := newUDPViewer()
		if err != nil {
			return nil, err
		}
		s.udp = append(s.udp, u)
		s.transport = u.kind
		inner = u.host
		send = func(pkt []byte) error { _, err := u.view.Write(pkt); return err }
		recv, closeView = u.recv, u.view.Close
		loss = 0 // the kernel path is the only loss
	} else {
		hostEnd, viewEnd := transport.Pipe(
			transport.LinkConfig{Seed: witnessSeq, QueueLen: 1 << 14},
			transport.LinkConfig{Seed: witnessSeq + 1, QueueLen: 1 << 12})
		inner, send, recv, closeView = hostEnd, viewEnd.Send, viewEnd.Recv, viewEnd.Close
	}
	l := newLink(inner, b.tr, loss, witnessSeq)
	l.relay = viaRelay
	wt := newWitness(fmt.Sprintf("witness%d", i), p, l, b.tr, send, recv)
	wt.closeView = closeView
	v := &viewer{l: l}
	var err error
	if viaRelay {
		v.v, err = s.rl.AttachPacketConn(wt.name, l.conn())
	} else {
		v.r, err = s.host.AttachPacketConn(wt.name, l.conn(), ah.PacketOptions{UserID: uint16(i + 1)})
	}
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", wt.name, err)
	}
	wt.viewer = v
	if i == 0 {
		wt.button = btn
	}
	wt.start()
	if err := wt.sendPLI(); err != nil {
		return nil, fmt.Errorf("%s PLI: %w", wt.name, err)
	}
	return wt, nil
}

// newUDPViewer connects a witness's socket: loopback UDP where it can,
// otherwise a Unix datagram socket pair.
func newUDPViewer() (*udpViewer, error) {
	host, view, err := loopbackPair()
	if err == nil {
		// Best effort: a slide change is a burst of ~1000 datagrams.
		_ = view.SetReadBuffer(4 << 20)
		_ = host.SetReadBuffer(1 << 20)
		return readViewer(&appshare.UDPAdapter{Conn: host}, view, "loopback-udp"), nil
	}
	uhost, uview, uerr := unixPair()
	if uerr != nil {
		return nil, fmt.Errorf("udp: %w (socket pair: %v)", err, uerr)
	}
	return readViewer(&dgramAdapter{uhost}, uview, "unix-datagram"), nil
}

// loopbackPair connects two UDP sockets on 127.0.0.1.
func loopbackPair() (host, view *net.UDPConn, err error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	probe, err := net.ListenUDP("udp", lo)
	if err != nil {
		return nil, nil, err
	}
	vaddr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()
	if host, err = net.DialUDP("udp", lo, vaddr); err != nil {
		return nil, nil, err
	}
	if view, err = net.DialUDP("udp", vaddr, host.LocalAddr().(*net.UDPAddr)); err != nil {
		host.Close()
		return nil, nil, err
	}
	return host, view, nil
}

// unixPair connects two Unix datagram sockets: datagrams still cross the
// kernel one write each, without a network interface.
func unixPair() (host, view net.Conn, err error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, nil, err
	}
	conns := make([]net.Conn, 2)
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "unixgram")
		conns[i], err = net.FileConn(f)
		f.Close() // FileConn holds its own descriptor
		if err != nil {
			if i == 0 {
				syscall.Close(fds[1])
			} else {
				conns[0].Close()
			}
			return nil, nil, err
		}
	}
	return conns[0], conns[1], nil
}

// readViewer starts the goroutine that drains the viewer's socket. The
// queue holds many slide-change bursts, so the reader never waits on the
// witness's decode and the kernel buffer stays empty.
func readViewer(host transport.PacketConn, view net.Conn, kind string) *udpViewer {
	u := &udpViewer{host: host, view: view, kind: kind, ch: make(chan []byte, 1<<14), done: make(chan struct{})}
	go func() {
		defer close(u.done)
		defer close(u.ch)
		buf := make([]byte, 64<<10)
		for {
			n, err := view.Read(buf)
			if err != nil {
				return
			}
			u.ch <- append([]byte(nil), buf[:n]...)
		}
	}()
	return u
}

// dgramAdapter is UDPAdapter's counterpart on a Unix datagram socket: one
// write per datagram, batches included.
type dgramAdapter struct{ c net.Conn }

func (a *dgramAdapter) Send(pkt []byte) error {
	_, err := a.c.Write(pkt)
	return err
}

func (a *dgramAdapter) SendBatch(pkts [][]byte) (int, error) {
	for i, pkt := range pkts {
		if _, err := a.c.Write(pkt); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func (a *dgramAdapter) Recv() ([]byte, error) {
	buf := make([]byte, 64<<10)
	n, err := a.c.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

func (a *dgramAdapter) Close() error { return a.c.Close() }

func (u *udpViewer) recv() ([]byte, error) {
	pkt, ok := <-u.ch
	if !ok {
		return nil, net.ErrClosed
	}
	return pkt, nil
}

// join attaches one sink viewer, to the relay when edge is set, and
// announces it with a PLI.
func (s *session) join(edge bool, now time.Time, bucket int32) (*viewer, error) {
	b := s.b
	id := s.nextID
	s.nextID++
	l := newLink(nil, b.tr, s.sp.loss, b.opt.seed*7919+int64(id))
	l.relay = edge
	v := &viewer{l: l}
	name := fmt.Sprintf("v%d", id)
	l.startJoin(now, bucket)
	var err error
	if edge {
		if v.v, err = s.rl.AttachPacketConn(name, l.conn()); err == nil {
			s.feedback(v, pliFor(v.v.SSRC()))
			s.edge = append(s.edge, v)
		}
	} else {
		if v.r, err = s.host.AttachPacketConn(name, l.conn(), ah.PacketOptions{}); err == nil {
			s.feedback(v, pliFor(v.r.SSRC()))
			s.direct = append(s.direct, v)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", name, err)
	}
	s.joining = append(s.joining, v)
	return v, nil
}

// feedback delivers one RTCP packet from a viewer to the host or relay.
func (s *session) feedback(v *viewer, pkt []byte) {
	tr := s.b.tr
	start := tr.begin()
	if v.v != nil {
		s.rl.HandleFeedback(v.v, pkt)
		tr.end("relay.feedback", start, false)
		return
	}
	s.host.HandleFeedback(v.r, pkt)
	tr.end("ah.feedback", start, false)
}

// repair runs one NACK round: every lossy in-process viewer NACKs what it
// lacks; UDP witnesses NACK the gaps their participant has seen, and with
// tail set also the datagrams sent after the last one they hold.
func (s *session) repair(tail bool) {
	if s.sp.loss > 0 {
		for _, group := range [][]*viewer{s.direct, s.edge} {
			for _, v := range group {
				if lost := v.l.lost(64); len(lost) > 0 {
					s.feedback(v, buildNACK(lost))
				}
			}
		}
		for _, w := range s.witnesses {
			if lost := w.host.lost(64); len(lost) > 0 {
				w.nacks.Add(1)
				s.feedback(w.viewer, buildNACK(lost))
			}
		}
	}
	for _, w := range s.witnesses[:len(s.udp)] {
		if tail {
			if lost := w.tailLost(64); len(lost) > 0 {
				w.nacks.Add(1)
				_ = w.send(buildNACK(lost))
				continue
			}
		}
		_ = w.nackParticipant()
	}
}

// checkJoins records the latency of every joining viewer that now holds a
// complete refresh.
func (s *session) checkJoins(now time.Time, into samples) {
	kept := s.joining[:0]
	for _, v := range s.joining {
		if d, bucket, ok := v.l.joined(now); ok {
			into.add(bucket, ms(d))
			continue
		}
		kept = append(kept, v)
	}
	for i := len(kept); i < len(s.joining); i++ {
		s.joining[i] = nil
	}
	s.joining = kept
}

// churn replaces a share of the sink viewers: leavers detach, the same
// number of new viewers attach with a PLI.
func (s *session) churn(now time.Time, bucket int32) error {
	s.leaveAcc += s.sp.churn * float64(len(s.direct)+len(s.edge)) / float64(s.sp.fps)
	for s.leaveAcc >= 1 {
		s.leaveAcc--
		// Leavers are drawn among viewers that finished joining, so every
		// join either completes or fails.
		var group *[]*viewer
		var i int
		var edge bool
		for {
			edge = s.churnRNG.Intn(len(s.direct)+len(s.edge)) >= len(s.direct)
			group = &s.direct
			if edge {
				group = &s.edge
			}
			i = s.churnRNG.Intn(len(*group))
			if !(*group)[i].l.isJoining() {
				break
			}
		}
		v := (*group)[i]
		(*group)[i] = (*group)[len(*group)-1]
		*group = (*group)[:len(*group)-1]
		s.leave(v)
		if _, err := s.join(edge, now, bucket); err != nil {
			return err
		}
		s.joinTries[bucket]++
	}
	return nil
}

func (s *session) leave(v *viewer) {
	for i, j := range s.joining {
		if j == v {
			s.joining = append(s.joining[:i], s.joining[i+1:]...)
			break
		}
	}
	if v.v != nil {
		_ = v.v.Close()
	} else {
		_ = v.r.Close()
	}
	c := v.l.counters()
	s.retired.add(c)
}

func (c *rtpCounters) add(o rtpCounters) {
	c.calls += o.calls
	c.dgrams += o.dgrams
	c.bytes += o.bytes
	c.received += o.received
	c.duplicates += o.duplicates
	c.retransmits += o.retransmits
	c.nacked += o.nacked
	c.repaired += o.repaired
}

// rtpTotals sums the RTP counters of every viewer, present and departed.
func (s *session) rtpTotals() rtpCounters {
	t := s.retired
	for _, group := range [][]*viewer{s.direct, s.edge} {
		for _, v := range group {
			t.add(v.l.counters())
		}
	}
	for _, w := range s.witnesses {
		t.add(w.host.counters())
	}
	return t
}

func (s *session) viewers() int { return len(s.direct) + len(s.edge) + len(s.witnesses) }

// close tears the instance down and waits for its goroutines.
func (s *session) close() {
	if s.rl != nil {
		_ = s.rl.Close()
	}
	_ = s.host.Close()
	for _, w := range s.witnesses {
		w.close()
	}
	for _, u := range s.udp {
		<-u.done
	}
}

// converged compares every shared window the host holds with each
// witness's copy, pixel for pixel.
func (s *session) converged(w *witness) bool {
	for _, win := range s.desk.SharedWindows() {
		want := win.Snapshot()
		got := w.p.WindowImage(win.ID())
		if got == nil || got.Rect != want.Rect || string(got.Pix) != string(want.Pix) {
			return false
		}
	}
	return true
}

// settle pauses the open loop until every witness holds all the host sent
// (repairing as it goes) and, when final, every sink's sequence space is
// contiguous and every join complete. It reports whether that happened.
func (s *session) settle(final bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	grace := time.Now().Add(20 * time.Millisecond)
	for {
		ok := true
		for _, w := range s.witnesses {
			ok = ok && w.caughtUp() && !w.p.NeedsRefresh()
		}
		if final {
			s.checkJoins(time.Now(), s.joins)
			ok = ok && len(s.joining) == 0 && s.sinksContiguous()
		}
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			s.describeUnsettled()
			return false
		}
		s.repair(time.Now().After(grace))
		if final && len(s.joining) > 0 {
			// A joiner's refresh is served at the next tick: tick the host
			// without drawing.
			if err := s.host.Tick(); err != nil {
				s.gate(fmt.Sprintf("settle tick: %v", err))
				return false
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *session) sinksContiguous() bool {
	for _, group := range [][]*viewer{s.direct, s.edge} {
		for _, v := range group {
			if !v.l.contiguous() {
				return false
			}
		}
	}
	return true
}

// content builders: each returns the desktop, the per-tick drawing step
// and the button the clicking witness probes.

func buttonWindow(desk *display.Desktop, x, y int) buttonSpot {
	win := desk.CreateWindow(2, region.XYWH(x, y, 160, 80))
	win.Clear(white)
	win.SetHandler(apps.NewButton(win, region.XYWH(20, 20, 120, 40), "Ping"))
	return buttonSpot{win: win.ID(), x: x + 50, y: y + 30, px: 25, py: 25}
}

// entropy returns a seeded RTP identifier source safe for concurrent use.
func (b *bench) entropy(seed int64) func() uint32 {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(seed))
	return func() uint32 {
		mu.Lock()
		defer mu.Unlock()
		return r.Uint32()
	}
}

// describeUnsettled reports on standard error what kept settle waiting.
func (s *session) describeUnsettled() {
	for _, w := range s.witnesses {
		base, high, _ := w.host.position()
		w.mu.Lock()
		fmt.Fprintf(os.Stderr, "appbench: %s: sent %d..%d, handled through %d, %d ahead, needs refresh %v, missing %d\n",
			w.name, base, high, w.contig, len(w.ahead), w.p.NeedsRefresh(), len(w.host.missing))
		w.mu.Unlock()
	}
	gaps := 0
	for _, group := range [][]*viewer{s.direct, s.edge} {
		for _, v := range group {
			if !v.l.contiguous() {
				gaps++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "appbench: %d joins pending, %d sinks with gaps\n", len(s.joining), gaps)
}
