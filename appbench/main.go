// Command appbench is the repository's benchmark: open-loop application
// sharing workloads driven from one process at a fixed tick rate, with
// correctness gates, end-to-end metrics measured with tracing off and a
// traced mode that times the calls into each layer from outside.
//
//	appbench --workload fanout-typing --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result as one JSON object; the
// line before it is the environment block. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options select one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// ticks, when positive, measures exactly this many ticks instead of
	// --seconds' worth, and noProbes turns the click probes off; the
	// benchmark's own tests use both to make a run's traffic depend on
	// the seed alone.
	ticks    int
	noProbes bool
	scale    float64 // multiplies the viewer counts (tests shrink them)
	setups   int
	spans    string
}

// bench holds what a run shares across its set-up instances.
type bench struct {
	opt      options
	sp       *spec
	tr       *tracer
	enc, dec codecStats
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured duration")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run and writes the spans file")
	flag.StringVar(&opt.spans, "spans", "", "spans file (default .bench_build/appbench/spans-<workload>-<seed>.jsonl)")
	flag.Parse()
	opt.trace = trace == 1
	opt.scale, opt.setups = 1, 5
	if opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "appbench", fmt.Sprintf("spans-%s-%d.jsonl", opt.workload, opt.seed))
	}
	sp := specByName(opt.workload)
	if sp == nil || (trace != 0 && trace != 1) || opt.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(sp.procs)
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "appbench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(res.env)
	fmt.Printf("env %s\n", env)
	for _, g := range res.gateFailures {
		fmt.Fprintln(os.Stderr, "appbench: gate failed:", g)
	}
	out := map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed}
	metrics := map[string]any{}
	list := res.e2e
	if opt.trace {
		list = res.layers
	}
	for _, m := range list {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = metrics
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "appbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var n []string
	for _, sp := range specs {
		n = append(n, sp.name)
	}
	return n
}

// metric is one named, unit-carrying result.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is everything one run reports.
type result struct {
	correct           bool
	attempted, failed int
	gateFailures      []string
	e2e, layers       []metric
	env               envBlock
	// Whole-window transport figures, compared by the tests across
	// tracing on and off.
	wireBytesPerViewerTick, datagramsPerCall float64
}

// envBlock describes where and how the run was made.
type envBlock struct {
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SingleProc bool    `json:"single_proc_warning"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Transport  string  `json:"transport"`
	Viewers    int     `json:"viewers"`
	FPS        int     `json:"fps"`
	Ticks      int     `json:"ticks"`
	Traced     bool    `json:"traced"`
	LagP50ms   float64 `json:"start_lag_p50_ms"`
	LagP95ms   float64 `json:"start_lag_p95_ms"`
	LagMaxms   float64 `json:"start_lag_max_ms"`
	// LagGrowthMaxms is the largest rise of the start lag inside one
	// sub-window; BehindWindows counts the sub-windows in which the host
	// fell behind, and any makes the run overloaded, which fails it.
	LagGrowthMaxms float64   `json:"start_lag_growth_max_ms"`
	BehindWindows  int       `json:"behind_windows"`
	Overloaded     bool      `json:"overloaded"`
	SpansFile      string    `json:"spans_file,omitempty"`
	SetupSeconds   []float64 `json:"setup_s_each"`
	// TickP50ByWindow is each sub-window's median tick (ms); GCCycles
	// counts the collections in the measured window.
	TickP50ByWindow []float64 `json:"tick_p50_ms_by_window"`
	GCCycles        float64   `json:"gc_cycles"`
	// Samples counts what the reported percentiles were taken over.
	Samples map[string]int `json:"samples"`
}

func run(opt options) (*result, error) {
	sp := *specByName(opt.workload)
	sp.sinks = int(float64(sp.sinks) * opt.scale)
	sp.edgeSinks = int(float64(sp.edgeSinks) * opt.scale)
	viewers := sp.sinks + sp.edgeSinks + sp.witnesses
	b := &bench{opt: opt, sp: &sp, tr: newTracer(max(1, int64(viewers/200)))}

	// Set up several times; the median is setup_s and the last instance
	// runs the measured window.
	var s *session
	var setups []float64
	for i := 0; i < opt.setups; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = b.setup(&sp, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	w := s.drive()
	res := b.report(s, w, setups)
	if opt.trace {
		res.env.SpansFile = opt.spans
		hdr := map[string]any{"workload": sp.name, "seed": opt.seed}
		if err := b.tr.writeSpans(opt.spans, hdr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// percentile returns the q-quantile (0..1) of v by linear interpolation.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// samples holds measurements per sub-window (bucket) of a run.
type samples map[int32][]float64

func (m samples) add(bucket int32, v float64) { m[bucket] = append(m[bucket], v) }

// pooled returns every sample of the given buckets.
func (m samples) pooled(buckets []int32) []float64 {
	var out []float64
	for _, b := range buckets {
		out = append(out, m[b]...)
	}
	return out
}

// steady returns the median over the given buckets of each bucket's
// q-quantile: one disturbed sub-window does not move it.
func (m samples) steady(buckets []int32, q float64) float64 {
	var per []float64
	for _, b := range buckets {
		if len(m[b]) > 0 {
			per = append(per, percentile(m[b], q))
		}
	}
	return median(per)
}
