package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. It is
// always installed, so the program under test sees the same wrappers with
// tracing on and off; while off, every hook is one atomic load.
//
// Spans of one tick share its id. Full span records are kept in memory only
// for every keepEvery-th tick (and for every span outside ticks), so a
// 4000-viewer run does not hold millions of send spans; aggregates and
// self times cover every span.
type tracer struct {
	on        atomic.Bool
	t0        time.Time
	keepEvery int64

	nextID atomic.Uint64
	tick   atomic.Int64
	// curTick is the open Host.Tick span; curFwd the open relay forward
	// span. Spans ending while one is open are its children.
	curTick atomic.Pointer[openSpan]
	curFwd  atomic.Pointer[openSpan]

	mu    sync.Mutex
	spans []spanRec
	total uint64
	agg   map[string]*spanAgg
}

type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Tick   int64  `json:"tick"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg aggregates every span of one name: count, busy time, self time
// (busy time minus the part its children cover) and, for low-volume spans,
// each duration so percentiles can be taken.
type spanAgg struct {
	n, total, self int64
	durs, selfs    []int64
}

// openSpan is a span whose children are still being collected so its self
// time can be computed when it ends.
type openSpan struct {
	id    uint64
	start int64
	mu    sync.Mutex
	kids  [][2]int64
}

// perSpanDurations names the spans whose individual durations are kept for
// percentiles; the rest (sends, encodes, handles) keep totals only.
var perSpanDurations = map[string]bool{
	"ah.tick": true, "display.step": true, "participant.render": true,
	"relay.forward": true, "relay.forward_refresh": true,
}

func newTracer(keepEvery int64) *tracer {
	return &tracer{t0: time.Now(), keepEvery: keepEvery, agg: map[string]*spanAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin returns a span start, or -1 while tracing is off.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return -1
	}
	return t.now()
}

// openTick starts the Host.Tick span of the current tick.
func (t *tracer) openTick() *openSpan {
	if !t.on.Load() {
		return nil
	}
	s := &openSpan{id: t.nextID.Add(1), start: t.now()}
	t.curTick.Store(s)
	return s
}

func (t *tracer) closeTick(s *openSpan) {
	if s == nil {
		return
	}
	t.curTick.Store(nil)
	t.closeOpen("ah.tick", s, 0)
}

// openForward starts a relay forward span, a child of the open tick.
func (t *tracer) openForward() *openSpan {
	if !t.on.Load() {
		return nil
	}
	s := &openSpan{id: t.nextID.Add(1), start: t.now()}
	t.curFwd.Store(s)
	return s
}

func (t *tracer) closeForward(name string, s *openSpan) {
	if s == nil {
		return
	}
	t.curFwd.Store(nil)
	parent := uint64(0)
	if tk := t.curTick.Load(); tk != nil {
		parent = tk.id
		tk.addKid(s.start, t.now())
	}
	t.closeOpen(name, s, parent)
}

func (t *tracer) closeOpen(name string, s *openSpan, parent uint64) {
	end := t.now()
	s.mu.Lock()
	covered := coverage(s.kids, s.start, end)
	s.mu.Unlock()
	t.record(spanRec{ID: s.id, Parent: parent, Name: name, Tick: t.tick.Load(), Start: s.start, End: end}, end-s.start-covered)
}

func (s *openSpan) addKid(start, end int64) {
	s.mu.Lock()
	s.kids = append(s.kids, [2]int64{start, end})
	s.mu.Unlock()
}

// end closes a leaf span started by begin. inFwd makes it a child of the
// open relay forward span when there is one (sends to relay viewers).
func (t *tracer) end(name string, start int64, inFwd bool) {
	if start < 0 {
		return
	}
	end := t.now()
	var parent *openSpan
	if inFwd {
		parent = t.curFwd.Load()
	}
	if parent == nil {
		parent = t.curTick.Load()
	}
	var pid uint64
	if parent != nil {
		pid = parent.id
		parent.addKid(start, end)
	}
	t.record(spanRec{ID: t.nextID.Add(1), Parent: pid, Name: name, Tick: t.tick.Load(), Start: start, End: end}, end-start)
}

func (t *tracer) record(s spanRec, self int64) {
	d := s.End - s.Start
	t.mu.Lock()
	a := t.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.Name] = a
	}
	a.n++
	a.total += d
	a.self += self
	if perSpanDurations[s.Name] {
		a.durs = append(a.durs, d)
		a.selfs = append(a.selfs, self)
	}
	t.total++
	if s.Parent == 0 || s.Tick%t.keepEvery == 0 {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// stats returns a copy of the aggregate for name (zero when absent).
func (t *tracer) stats(name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return spanAgg{n: a.n, total: a.total, self: a.self,
			durs: append([]int64(nil), a.durs...), selfs: append([]int64(nil), a.selfs...)}
	}
	return spanAgg{}
}

// coverage returns how much of [lo, hi] the union of the intervals covers.
func coverage(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

// writeSpans writes the kept spans as JSON lines, after a header line.
func (t *tracer) writeSpans(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	header["spans_total"] = t.total
	header["spans_kept"] = len(t.spans)
	header["kept_every_ticks"] = t.keepEvery
	// Every span's totals per layer boundary, kept or not: count, busy
	// time and self time (busy time minus what its children cover).
	layers := map[string]map[string]int64{}
	for name, a := range t.agg {
		layers[name] = map[string]int64{"count": a.n, "busy_ns": a.total, "self_ns": a.self}
	}
	header["layers"] = layers
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
