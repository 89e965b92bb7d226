package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// toyParams shrinks each workload so that one pass takes well under a second.
func toyParams(workload string) params {
	switch workload {
	case "replay":
		return params{files: 3, changes: 9, minNodes: 300, maxNodes: 600, maxEdits: 2}
	case "batch":
		return params{files: 4, changes: 16, minNodes: 150, maxNodes: 400, maxEdits: 10, window: 4}
	default:
		return params{files: 4, changes: 16, minNodes: 150, maxNodes: 400, maxEdits: 3, round: 4}
	}
}

// selfTimed lists, per workload, the per-layer self times that together
// with trace.remainder_s make up the traced op wall.
var selfTimed = map[string][]string{
	"replay": {"pylang.parse_s", "truediff.prepare_s", "truediff.shares_s", "truediff.select_s",
		"truediff.emit_s", "truediff.other_s", "truechange.welltyped_s", "mtree.patch_s"},
	"batch": {"engine.ingest_s", "engine.batch_s"},
	"service": {"diffserve.client_codec_s", "diffserve.transport_s", "diffserve.server_overhead_s",
		"engine.diff_other_s", "truediff.prepare_s", "truediff.shares_s", "truediff.select_s", "truediff.emit_s"},
}

type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsReportEveryMetric runs every workload at toy size, untraced
// and traced, and checks the result line against BENCHMARK.json: every
// named metric appears with its unit, and no op failed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(selfTimed) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(selfTimed))
	}
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			t.Run(wl.Name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: wl.Name, seed: 1, trace: trace, out: t.TempDir(), p: toyParams(wl.Name)}
				if err := run(cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 ||
					res.Failed == nil || *res.Failed != 0 {
					t.Fatalf("result line %q: want correct, attempted ≥ 1, failed 0", lines[len(lines)-1])
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, w := range want {
					got, ok := res.Metrics[w.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", w.Name)
					case got.Unit != w.Unit:
						t.Errorf("metric %s has unit %q, want %q", w.Name, got.Unit, w.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", w.Name, got.Value)
					}
				}
				if !trace {
					if v := res.Metrics["ok_frac"].Value; v != 1 {
						t.Errorf("ok_frac = %v, want 1 (failed_frac 0)", v)
					}
					return
				}
				// The layers' self times and the remainder add up to the op wall.
				sum := res.Metrics["trace.remainder_s"].Value
				for _, name := range selfTimed[wl.Name] {
					v := res.Metrics[name].Value
					if v <= 0 {
						t.Errorf("%s = %v on %s, where the layer does work", name, v, wl.Name)
					}
					sum += v
				}
				if wall := res.Metrics["trace.op_wall_s"].Value; wall <= 0 || math.Abs(sum-wall) > 1e-9*float64(len(want))+1e-6*wall {
					t.Errorf("self times add up to %v s, op wall is %v s", sum, wall)
				}
			})
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "batch", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil || cfg.workload != "batch" || cfg.seed != 7 || cfg.seconds != 3 || !cfg.trace || cfg.p.window == 0 {
		t.Fatalf("parseFlags = %+v, %v", cfg, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "replay", "--trace", "2"},
		{"--workload", "replay", "extra"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q) succeeded", bad)
		}
	}
}

// TestFingerprintFollowsSeed checks that the input fingerprint is a
// function of the seed.
func TestFingerprintFollowsSeed(t *testing.T) {
	p := toyParams("batch")
	a, b, c := generateTrees(1, p).fingerprint(), generateTrees(1, p).fingerprint(), generateTrees(2, p).fingerprint()
	if a != b || a == c {
		t.Fatalf("fingerprints seed 1, 1, 2: %s %s %s", a, b, c)
	}
	p = toyParams("replay")
	if generateText(1, p).fingerprint() != generateText(1, p).fingerprint() {
		t.Fatal("replay fingerprint differs for one seed")
	}
}
