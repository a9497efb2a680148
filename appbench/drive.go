package main

import (
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"appshare/internal/capture"
	"appshare/internal/relay"
)

// snap is the state of every counter at one instant of a run; metrics of
// a window are differences between two snaps.
type snap struct {
	cpu       time.Duration
	ticks     int
	enc, dec  [4]int64 // calls, ns, px, bytes
	em        capture.EncodeMetrics
	served    uint64
	relay     relay.Stats
	upReq     int64
	rtp       rtpCounters
	deferrals uint64
	rt        [6]float64 // alloc bytes, alloc objects, gc cycles, gc cpu s, total cpu s, live heap bytes
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/heap/live:bytes",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func (c *codecStats) load() [4]int64 {
	return [4]int64{c.calls.Load(), c.ns.Load(), c.px.Load(), c.bytes.Load()}
}

func (s *session) snapshot(ticks int) snap {
	b := s.b
	sn := snap{cpu: processCPU(), ticks: ticks,
		enc: b.enc.load(), dec: b.dec.load(), em: s.host.EncodeMetrics(),
		served: s.host.ServedRefreshes(), rtp: s.rtpTotals()}
	if s.rl != nil {
		sn.relay = s.rl.Stats()
		sn.upReq = s.up.requests.Load()
	}
	for _, v := range s.direct {
		sn.deferrals += v.r.Deferrals()
	}
	for _, w := range s.witnesses {
		if w.viewer.r != nil {
			sn.deferrals += w.viewer.r.Deferrals()
		}
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, smp := range samples {
		switch smp.Value.Kind() {
		case metrics.KindUint64:
			sn.rt[i] = float64(smp.Value.Uint64())
		case metrics.KindFloat64:
			sn.rt[i] = smp.Value.Float64()
		}
	}
	return sn
}

// windows are the snaps bounding the measured phases: a starts the
// measured window, b (traced runs) starts the traced half, e ends it.
type windows struct {
	a, b, e snap
}

// warmup precedes the measured window: long enough for the retransmission
// logs to fill, so the heap is steady while measuring, and for the join
// probes of workloads without churn.
const warmup = 5 * time.Second

// joinProbes is the number of join probes on workloads without churn. One
// runs every third warm-up tick, so a refresh that takes longer than a
// tick period is caught up before the next; the warm-up lasts until they
// are done or until probeDeadline after the start.
const joinProbes = 30

// probeDeadline bounds the warm-up's join probes, as set-up is bounded: a
// probe still joining then has failed, and the probes not yet started are
// not run.
const probeDeadline = 30 * time.Second

// probesDone reports whether the warm-up's join probes finished, or were
// cut at the deadline, at least a second ago, so the lag a slow refresh
// leaves has drained.
func (s *session) probesDone(now, deadline time.Time) bool {
	if s.sp.churn > 0 {
		return true
	}
	if s.probesEnd.IsZero() {
		cut := !now.Before(deadline)
		if !cut && (len(s.joins[0]) < joinProbes || len(s.probes) > 0) {
			return false
		}
		if cut {
			s.probeTries = joinProbes // those not started fail too
		}
		s.retireProbes(true)
		s.probesEnd = now
	}
	return now.Sub(s.probesEnd) >= time.Second
}

// drive runs the open loop: tick k is due at a fixed offset from the start
// whatever the host's speed, and each tick's latency counts from when it
// was due. The measured window is split into sub-windows; between two, the
// loop pauses for a convergence checkpoint and its schedule resumes after
// the pause, so checkpoints add no lag. In traced runs the second half of
// the sub-windows runs with tracing on.
func (s *session) drive() windows {
	sp, opt, tr := s.sp, s.b.opt, s.b.tr
	period := time.Second / time.Duration(sp.fps)
	if !opt.noProbes {
		c := s.witnesses[0]
		c.wg.Add(1)
		go c.clickProbes(opt.seed*31+7, period, 3*time.Second, s.bucket.Load)
	}
	nWin := s.b.subWindows()
	winTicks := s.b.windowTicks()
	start := time.Now()
	warmEnd, probesBy := start.Add(warmup), start.Add(probeDeadline)
	var w windows
	measured, inWin := 0, 0
	next := start
	for k := int64(1); ; k++ {
		due := next
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		bucket := s.bucket.Load()
		switch {
		case bucket == 0 && (opt.ticks > 0 && k > 5 || opt.ticks == 0 && !now.Before(warmEnd) && s.probesDone(now, probesBy)):
			w.a = s.snapshot(measured)
			bucket = 1
			s.bucket.Store(bucket)
			inWin = 0
		case bucket > 0 && inWin >= winTicks:
			if bucket == nWin {
				w.e = s.snapshot(measured)
				if !opt.trace {
					w.b = w.e
				}
				tr.on.Store(false)
				s.bucket.Store(0) // click probes from here on are not measured
				s.checkpoint(true)
				return w
			}
			s.checkpoint(false)
			bucket++
			s.bucket.Store(bucket)
			if opt.trace && bucket == nWin/2+1 {
				w.b = s.snapshot(measured)
				tr.on.Store(true)
			}
			now = time.Now()
			due, inWin = now, 0
		}
		if bucket > 0 {
			s.lags.add(bucket, ms(now.Sub(due)))
			measured++
			inWin++
		}
		tr.tick.Store(k)
		st := tr.begin()
		s.step()
		tr.end("display.step", st, false)
		ts := tr.openTick()
		t0 := time.Now()
		err := s.host.Tick()
		td := time.Since(t0)
		tr.closeTick(ts)
		s.ticks.add(bucket, ms(td))
		if err != nil {
			if bucket > 0 {
				s.tickFails++
			}
			s.gate(fmt.Sprintf("tick %d: %v", k, err))
		}
		for _, wt := range s.witnesses {
			wt.tickSent(wt.hostHigh(), due, bucket)
		}
		s.repair(false)
		s.checkJoins(time.Now(), s.joins)
		if sp.churn > 0 {
			if err := s.churn(time.Now(), bucket); err != nil {
				s.gate(err.Error())
			}
		} else {
			s.retireProbes(false)
			if bucket == 0 && k%3 == 0 && s.probesEnd.IsZero() && len(s.probes) == 0 && len(s.joins[0]) < joinProbes {
				if err := s.probeJoin(k, due); err != nil {
					s.gate(err.Error())
				}
			}
		}
		next = due.Add(period)
	}
}

// windowTicks is the length of a sub-window: 50 ticks, long enough for a
// 95th percentile and short enough that a run holds many of them.
func (b *bench) windowTicks() int {
	if b.opt.ticks > 0 {
		return b.opt.ticks / 2
	}
	return 50
}

// subWindows is the number of measured sub-windows, at least two (one
// untraced and one traced half in traced runs): --seconds of ticks at the
// workload's rate.
func (b *bench) subWindows() int32 {
	if b.opt.ticks > 0 {
		return 2
	}
	ticks := b.opt.seconds * float64(b.sp.fps)
	return int32(max(2, int(ticks/float64(b.windowTicks())+0.5)))
}

// gate records a failed correctness gate.
func (s *session) gate(msg string) {
	s.gates = append(s.gates, msg)
}

// checkpoint settles the viewers and checks the witnesses' windows against
// the host's; the final one also checks every sink's sequence space.
func (s *session) checkpoint(final bool) {
	if !s.settle(final) {
		s.gate(fmt.Sprintf("viewers did not settle (final=%v)", final))
	}
	for _, w := range s.witnesses {
		s.checks++
		if !s.converged(w) {
			s.checkFails++
			s.gate(w.name + " render differs from the host's windows")
		}
	}
	if !final {
		return
	}
	for _, group := range [][]*viewer{s.direct, s.edge} {
		for _, v := range group {
			s.checks++
			if !v.l.contiguous() {
				s.checkFails++
				s.gate("a sink's RTP sequence space has a gap")
			}
		}
	}
	for _, w := range s.witnesses {
		s.checks++
		if !w.host.contiguous() {
			s.checkFails++
			s.gate(w.name + " RTP sequence space has a gap")
		}
	}
}
