package main

import (
	"fmt"
	"runtime"
	"time"
)

// report turns a finished run into its metrics, gates and environment.
func (b *bench) report(s *session, w windows, setups []float64) *result {
	sp, opt := s.sp, b.opt
	res := &result{}

	// Operations: ticks, click probes, joins and convergence checks of the
	// measured window, the warm-up's join probes, and the eviction and
	// overload gates.
	lats := samples{}
	var probes []probeResult
	for _, wt := range s.witnesses {
		l, p := wt.results()
		for b, v := range l {
			lats[b] = append(lats[b], v...)
		}
		probes = append(probes, p...)
	}
	nWin := b.subWindows()
	var all []int32
	for i := int32(1); i <= nWin; i++ {
		all = append(all, i)
	}
	c2p := samples{}
	for _, p := range probes {
		if p.bucket == 0 {
			continue
		}
		res.attempted++
		if !p.ok {
			res.failed++
			s.gate("a click probe was not observed")
			continue
		}
		c2p.add(p.bucket, ms(p.lat))
	}
	tries := 0
	for _, bk := range all {
		tries += s.joinTries[bk]
	}
	res.attempted += len(s.ticks.pooled(all)) + tries + s.checks + 2
	res.failed += s.tickFails + tries - len(s.joins.pooled(all)) + s.checkFails
	if sp.churn == 0 {
		// The warm-up's join probes.
		probes := s.probeTries
		res.attempted += probes
		if n := probes - len(s.joins[0]); n > 0 {
			res.failed += n
			s.gate(fmt.Sprintf("%d of %d join probes did not complete", n, probes))
		}
	}
	if n := s.evictions.Load(); n > 0 {
		res.failed++
		s.gate("viewers were evicted")
	}
	// An overloaded run is not timed: it fails.
	period := 1000 / float64(sp.fps)
	behind, growth := s.behind(all, period)
	if behind > 0 {
		res.failed++
		s.gate(fmt.Sprintf("overloaded: the host fell behind the open-loop schedule in %d of %d sub-windows", behind, len(all)))
	}
	res.correct = res.failed == 0

	viewers := float64(s.viewers())
	mem := peakRSSMB()
	// Percentiles are medians over the sub-windows of each sub-window's
	// percentile; rates are over the whole phase.
	e2e := func(buckets []int32, x, y snap) []metric {
		vt := viewers * float64(y.ticks-x.ticks)
		join := percentile(s.joins[0], 0.5) // the warm-up's join probes
		if sp.churn > 0 {
			join = s.joins.steady(buckets, 0.5)
		}
		return []metric{
			{"setup_s", "s", median(setups)},
			{"update_latency_p50_ms", "ms", lats.steady(buckets, 0.5)},
			{"update_latency_p95_ms", "ms", lats.steady(buckets, 0.95)},
			{"tick_p50_ms", "ms", s.ticks.steady(buckets, 0.5)},
			{"tick_p95_ms", "ms", s.ticks.steady(buckets, 0.95)},
			{"click_to_photon_p50_ms", "ms", c2p.steady(buckets, 0.5)},
			{"click_to_photon_p95_ms", "ms", c2p.steady(buckets, 0.95)},
			{"join_latency_p50_ms", "ms", join},
			{"cpu_us_per_viewer_tick", "us", float64(y.cpu-x.cpu) / float64(time.Microsecond) / vt},
			{"wire_bytes_per_viewer_tick", "B", float64(y.rtp.bytes-x.rtp.bytes) / vt},
			{"mem_peak_mb", "MB", mem},
		}
	}
	res.wireBytesPerViewerTick = float64(w.e.rtp.bytes-w.a.rtp.bytes) / (viewers * float64(w.e.ticks-w.a.ticks))
	res.datagramsPerCall = ratio(float64(w.e.rtp.dgrams-w.a.rtp.dgrams), float64(w.e.rtp.calls-w.a.rtp.calls))
	reported := all
	if !opt.trace {
		res.e2e = e2e(all, w.a, w.e)
	} else {
		half := int(nWin / 2)
		reported = all[half:]
		plain, traced := e2e(all[:half], w.a, w.b), e2e(all[half:], w.b, w.e)
		res.e2e = traced
		res.layers = b.layers(s, w.b, w.e, viewers)
		for i, m := range traced {
			if m.name == "setup_s" || m.name == "mem_peak_mb" {
				// Set-up always runs untraced, and the peak RSS is one
				// reading for the whole process.
				continue
			}
			res.layers = append(res.layers, metric{"overhead." + m.name, m.unit, m.value - plain[i].value})
		}
	}

	lags := s.lags.pooled(all)
	res.env = envBlock{
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), SingleProc: runtime.GOMAXPROCS(0) == 1,
		Seed: opt.seed, Workload: sp.name, Transport: s.transport, Viewers: int(viewers),
		FPS: sp.fps, Ticks: len(s.ticks.pooled(all)), Traced: opt.trace,
		LagP50ms: percentile(lags, 0.5), LagP95ms: percentile(lags, 0.95), LagMaxms: percentile(lags, 1),
		LagGrowthMaxms: growth, BehindWindows: behind, Overloaded: behind > 0,
		SetupSeconds: setups,
		GCCycles:     w.e.rt[2] - w.a.rt[2],
	}
	joins := len(s.joins[0])
	if sp.churn > 0 {
		joins = len(s.joins.pooled(reported))
	}
	res.env.Samples = map[string]int{"ticks": len(s.ticks.pooled(reported)), "update_latency": len(lats.pooled(reported)),
		"click_to_photon": len(c2p.pooled(reported)), "join_latency": joins}
	for _, bk := range all {
		res.env.TickP50ByWindow = append(res.env.TickP50ByWindow, percentile(s.ticks[bk], 0.5))
	}
	res.gateFailures = s.gates
	return res
}

// behind counts the sub-windows in which the host fell behind the open
// loop: the smallest start lag of the window's last quarter of ticks
// exceeds the smallest of its first quarter by more than a tick period.
// Each sub-window's schedule starts afresh, so a steady overload shows as
// lag growing inside every one, while a host that stalls once (a
// neighbour's burst of CPU) and catches up starts some later tick on time
// again: its latencies show the stall, but it is not behind. It also
// returns the largest growth (ms).
func (s *session) behind(buckets []int32, period float64) (int, float64) {
	n, most := 0, 0.0
	for _, bk := range buckets {
		l := s.lags[bk]
		q := len(l) / 4
		if q == 0 {
			continue
		}
		growth := percentile(l[len(l)-q:], 0) - percentile(l[:q], 0)
		most = max(most, growth)
		if growth > period {
			n++
		}
	}
	return n, most
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers computes the per-layer metrics of the traced window x..y.
func (b *bench) layers(s *session, x, y snap, viewers float64) []metric {
	tr := b.tr
	ticks := float64(y.ticks - x.ticks)
	vt := viewers * ticks
	us := func(ns float64) float64 { return ns / 1e3 }
	tick := tr.stats("ah.tick")
	fb := tr.stats("ah.feedback")
	send, sendRelay := tr.stats("transport.send"), tr.stats("transport.send_relay")
	handle, render := tr.stats("participant.handle"), tr.stats("participant.render")
	fwd, fwdRef, rfb := tr.stats("relay.forward"), tr.stats("relay.forward_refresh"), tr.stats("relay.feedback")
	step := tr.stats("display.step")
	p50 := func(v []int64) float64 {
		f := make([]float64, len(v))
		for i, d := range v {
			f[i] = float64(d)
		}
		return percentile(f, 0.5)
	}
	mean := func(a spanAgg) float64 { return ratio(float64(a.total), float64(a.n)) }
	hits := float64(y.em.Cache.Hits - x.em.Cache.Hits)
	misses := float64(y.em.Cache.Misses - x.em.Cache.Misses)
	enc := func(i int) float64 { return float64(y.enc[i] - x.enc[i]) }
	dec := func(i int) float64 { return float64(y.dec[i] - x.dec[i]) }
	dgrams := float64(y.rtp.dgrams - x.rtp.dgrams)
	calls := float64(y.rtp.calls - x.rtp.calls)
	var dropped, reordered, nacks, plis, hipSent int64
	var maxQueued int
	for _, w := range s.witnesses {
		_, _, re, dr := w.p.Stats()
		dropped += int64(dr)
		reordered += int64(re)
		nacks += w.nacks.Load()
		plis += w.plis.Load()
		hipSent += w.hip.Load()
		if w.viewer.r != nil {
			maxQueued = max(maxQueued, w.viewer.r.QueuedBytes())
		}
	}
	for _, v := range s.direct {
		maxQueued = max(maxQueued, v.r.QueuedBytes())
	}
	serves := float64(y.relay.CacheServes - x.relay.CacheServes)
	upReq := float64(y.upReq - x.upReq)
	nacked := float64(y.rtp.nacked - x.rtp.nacked)
	rt := func(i int) float64 { return y.rt[i] - x.rt[i] }
	return []metric{
		{"ah.tick_us", "us", us(p50(tick.durs))},
		{"ah.tick_self_us", "us", us(p50(tick.selfs))},
		{"ah.feedback_calls", "count", float64(fb.n)},
		{"ah.feedback_us", "us", us(mean(fb))},
		{"ah.refreshes_served", "count", float64(y.served - x.served)},
		{"ah.evictions", "count", float64(s.evictions.Load())},
		{"ah.deferrals", "count", float64(y.deferrals - x.deferrals)},
		{"ah.queued_bytes_max", "B", float64(maxQueued)},
		{"ah.hip_errors", "count", float64(s.host.HIPErrors())},
		{"capture.cache_hit_rate", "ratio", ratio(hits, hits+misses)},
		{"capture.encode_batches", "count", float64(y.em.Batches - x.em.Batches)},
		{"capture.parallel_jobs", "count", float64(y.em.ParallelJobs - x.em.ParallelJobs)},
		{"capture.serial_jobs", "count", float64(y.em.SerialJobs - x.em.SerialJobs)},
		{"codec.encode_calls", "count", enc(0)},
		{"codec.encode_ms_per_tick", "ms", ratio(enc(1)/1e6, ticks)},
		{"codec.encode_ns_per_px", "ns", ratio(enc(1), enc(2))},
		{"codec.bytes_per_px", "B", ratio(enc(3), enc(2))},
		{"codec.decode_calls", "count", dec(0)},
		{"codec.decode_ms_per_tick", "ms", ratio(dec(1)/1e6, ticks)},
		{"transport.send_calls", "count", calls},
		{"transport.datagrams_per_call", "ratio", ratio(dgrams, calls)},
		{"transport.send_ns_per_datagram", "ns", ratio(float64(send.total+sendRelay.total), dgrams)},
		{"transport.datagrams_per_viewer_tick", "count", ratio(dgrams, vt)},
		{"participant.handle_us_per_datagram", "us", us(mean(handle))},
		{"participant.render_us", "us", us(p50(render.durs))},
		{"participant.dropped", "count", float64(dropped)},
		{"participant.reordered", "count", float64(reordered)},
		{"participant.nacks_sent", "count", float64(nacks)},
		{"participant.plis_sent", "count", float64(plis)},
		{"relay.forward_us", "us", us(p50(fwd.durs))},
		{"relay.forward_self_us", "us", us(p50(fwd.selfs))},
		{"relay.forward_refresh_us", "us", us(p50(fwdRef.durs))},
		{"relay.feedback_us", "us", us(mean(rfb))},
		{"relay.cache_serves", "count", serves},
		{"relay.cache_refills", "count", float64(y.relay.CacheRefills - x.relay.CacheRefills)},
		{"relay.absorbed_plis", "count", float64(y.relay.AbsorbedPLIs - x.relay.AbsorbedPLIs)},
		{"relay.absorption", "ratio", ratio(serves, serves+upReq)},
		{"rtp.nacked_seqs", "count", nacked},
		{"rtp.retransmits", "count", float64(y.rtp.retransmits - x.rtp.retransmits)},
		{"rtp.repair_ratio", "ratio", ratio(float64(y.rtp.repaired-x.rtp.repaired), nacked)},
		{"rtp.duplicate_frac", "ratio", ratio(float64(y.rtp.duplicates-x.rtp.duplicates), float64(y.rtp.received-x.rtp.received))},
		{"hip.events_sent", "count", float64(hipSent)},
		{"runtime.alloc_bytes_per_viewer_tick", "B", ratio(rt(0), vt)},
		{"runtime.allocs_per_viewer_tick", "count", ratio(rt(1), vt)},
		{"runtime.gc_cycles", "count", rt(2)},
		{"runtime.gc_cpu_frac", "ratio", ratio(rt(3), rt(4))},
		{"runtime.heap_live_mb", "MB", y.rt[5] / (1 << 20)},
		{"display.step_us", "us", us(p50(step.durs))},
	}
}
