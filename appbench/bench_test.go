package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smallRun is a short fixed-length run of a workload at reduced scale, with
// click probes off so its wire traffic depends on the seed alone.
func smallRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	opt := options{workload: workload, seed: 3, ticks: 40, noProbes: true, scale: 0.05,
		setups: 1, trace: trace, spans: filepath.Join(t.TempDir(), "spans.jsonl")}
	res, err := run(opt)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.correct {
		t.Fatalf("%s trace=%v: gates failed: %v", workload, trace, res.gateFailures)
	}
	return res
}

// TestTracingLeavesTransportUnchanged checks that the timing wrappers
// forward exactly: the same seed hands transport the same bytes in the same
// batches with tracing on and off, and the host takes its batched send path.
func TestTracingLeavesTransportUnchanged(t *testing.T) {
	plain := smallRun(t, "fanout-typing", false)
	traced := smallRun(t, "fanout-typing", true)
	if plain.wireBytesPerViewerTick != traced.wireBytesPerViewerTick {
		t.Errorf("wire_bytes_per_viewer_tick: %v untraced, %v traced",
			plain.wireBytesPerViewerTick, traced.wireBytesPerViewerTick)
	}
	if plain.datagramsPerCall != traced.datagramsPerCall {
		t.Errorf("transport.datagrams_per_call: %v untraced, %v traced",
			plain.datagramsPerCall, traced.datagramsPerCall)
	}
	if plain.datagramsPerCall <= 1 {
		t.Errorf("transport.datagrams_per_call = %v, want > 1 (batched sends)", plain.datagramsPerCall)
	}
}

// TestTracedRunReportsEveryLayer checks that a traced run reports each
// per-layer metric once and that the layers the workload exercises are
// seen working.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	res := smallRun(t, "relay-churn-loss", true)
	got := map[string]float64{}
	for _, m := range res.layers {
		if _, dup := got[m.name]; dup {
			t.Errorf("metric %s reported twice", m.name)
		}
		got[m.name] = m.value
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		if _, ok := got[m.Name]; !ok {
			t.Errorf("BENCHMARK.json per-layer metric %s not reported", m.Name)
		}
	}
	if len(spec.PerLayer) != len(got) {
		t.Errorf("%d per-layer metrics reported, BENCHMARK.json lists %d", len(got), len(spec.PerLayer))
	}
	for i, m := range spec.EndToEnd {
		if i >= len(res.e2e) || res.e2e[i].name != m.Name {
			t.Errorf("end-to-end metric %d: BENCHMARK.json lists %s", i, m.Name)
		}
	}
	if len(spec.EndToEnd) != len(res.e2e) {
		t.Errorf("%d end-to-end metrics reported, BENCHMARK.json lists %d", len(res.e2e), len(spec.EndToEnd))
	}
	for _, name := range []string{"ah.tick_us", "ah.feedback_calls", "codec.encode_calls",
		"transport.send_calls", "participant.handle_us_per_datagram", "relay.forward_us",
		"relay.cache_refills", "rtp.nacked_seqs", "rtp.repair_ratio", "runtime.gc_cycles"} {
		if got[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, got[name])
		}
	}
}
