// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (replay, batch or service) on inputs generated from a seed,
// checks every output against the generator's own data, and prints the
// workload's metrics, ending with one JSON line:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones. README.md in this directory maps
// each metric to its layer and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/tree"
	"repro/internal/uri"
)

// workload runs passes over its generated history. Every pass sets up
// fresh program state (timed as one set-up sample), runs every op of the
// history in order, and checks the outputs outside the timed region.
type workload interface {
	pass(m *meter, pass int) error
	// targets returns target trees of the run, for the hashing probe.
	targets() []*tree.Node
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the results and span files; "" writes none
	p        params
}

// fullParams sizes each workload so that one pass takes at most a few
// seconds on a 2-CPU host, input generation stays under a few seconds, and a
// 20-second run gives a thousand op samples or more.
func fullParams(workload string) params {
	switch workload {
	case "replay":
		return params{files: 16, changes: 240, minNodes: 2000, maxNodes: 5000, maxEdits: 2}
	case "batch":
		return params{files: 24, changes: 320, minNodes: 400, maxNodes: 1600, maxEdits: 10, window: 8}
	case "service":
		return params{files: 12, changes: 320, minNodes: 400, maxNodes: 1600, maxEdits: 3, round: 16}
	}
	return params{}
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "replay, batch or service")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "timed seconds to measure; at least one full pass always runs")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "directory for the results and span files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.p = fullParams(cfg.workload)
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	case cfg.p.files == 0:
		return cfg, fmt.Errorf("unknown workload %q (want replay, batch or service)", cfg.workload)
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	case cfg.seconds < 0:
		return cfg, fmt.Errorf("--seconds must not be negative")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// par is the number of engine workers and service clients: the host's CPUs,
// capped at 2 so the workloads stay the same on larger hosts.
func par() int { return min(2, runtime.NumCPU()) }

// result is everything a run measured; it is printed, and stored with the
// run's span file when an output directory is given.
type result struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       bool    `json:"trace"`
	Fingerprint string  `json:"fingerprint"`
	Files       int     `json:"files"`
	Changes     int     `json:"changes"`
	InputNodes  int     `json:"input_nodes"`
	GenS        float64 `json:"gen_s"`
	Passes      int     `json:"passes"`
	TimedS      float64 `json:"timed_s"`
	Samples     int     `json:"latency_samples"`
	Attempted   int64   `json:"attempted"`
	Failed      int64   `json:"failed"`
	FailedFrac  float64 `json:"failed_frac"`
	Mismatches  int64   `json:"oracle_mismatches"`
	// EditsPerChange is the paper's conciseness figure: compound edits per
	// change over every change of the run. It is a function of the seed.
	EditsPerChange float64 `json:"edits_per_change"`
	HostBefore     float64 `json:"host_sha256_ns_per_byte_before"`
	HostAfter      float64 `json:"host_sha256_ns_per_byte_after"`
	// Control holds the host control sampled before every pass; HostScale
	// is refNsPerByte over its median, the factor that turns measured
	// times into reference-host times.
	Control   []float64 `json:"host_sha256_ns_per_byte_per_pass"`
	HostScale float64   `json:"host_scale"`
	// Raw holds the end-to-end metrics before host normalization.
	Raw     []namedValue `json:"raw_metrics,omitempty"`
	Metrics []namedValue `json:"metrics"`
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config, stdout io.Writer) error {
	r := result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Files: cfg.p.files, Changes: cfg.p.changes}
	r.HostBefore = hostControl(5, 16)

	genStart := time.Now()
	var w workload
	switch cfg.workload {
	case "replay":
		in := generateText(cfg.seed, cfg.p)
		r.Fingerprint, r.InputNodes = in.fingerprint(), in.nodes
		w = newReplay(in)
	case "batch", "service":
		in := generateTrees(cfg.seed, cfg.p)
		r.Fingerprint, r.InputNodes = in.fingerprint(), in.nodes()
		if cfg.workload == "batch" {
			w = &batch{in: in, p: cfg.p, workers: par()}
		} else {
			w = &service{in: in, p: cfg.p, par: par()}
		}
	default:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r.GenS = time.Since(genStart).Seconds()

	m := newMeter(cfg.trace)
	m.heapBaseMB = liveHeapMB()
	for r.Passes < 1 || m.timed.Seconds() < cfg.seconds {
		// No collection is forced between passes: a forced one would start
		// every pass at the same point of the collector's cycle, so whether
		// a pass pays for a collection would depend on the seed's heap size
		// and not average out over passes.
		r.Control = append(r.Control, hostControl(3, 4))
		if err := w.pass(m, r.Passes); err != nil {
			return err
		}
		r.Passes++
	}
	var hashNS float64
	if cfg.trace {
		hashNS = hashNsPerNode(w.targets())
	}
	r.HostAfter = hostControl(5, 16)

	r.TimedS = m.timed.Seconds()
	r.Samples = len(m.latMS)
	r.Attempted, r.Failed, r.Mismatches = m.attempted, m.failed, m.mismatches
	r.FailedFrac = ratio(float64(m.failed), float64(m.attempted))
	r.EditsPerChange = ratio(float64(m.edits), float64(m.changes))
	r.HostScale = refNsPerByte / median(r.Control)
	if cfg.trace {
		r.Metrics = perLayer(m, r, hashNS)
	} else {
		r.Raw = endToEnd(m, 1)
		r.Metrics = endToEnd(m, r.HostScale)
	}
	if m.attempted == 0 {
		return errors.New("no op was attempted")
	}
	if cfg.out != "" {
		if err := writeResults(cfg, r, m); err != nil {
			return err
		}
	}
	printSummary(stdout, r)

	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: m.mismatches == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]map[string]any{}}
	for _, nv := range r.Metrics {
		final.Metrics[nv.Name] = map[string]any{"value": nv.Value, "unit": nv.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// refNsPerByte is the reference host's speed on the host control: times on
// a host whose control reads c ns/B are reported scaled by refNsPerByte/c.
const refNsPerByte = 1.0

// endToEnd computes the metrics a user of the system sees, from untraced
// ops only. Times are multiplied by scale: measured on a shared host, the
// same code's wall times drift by a fifth within minutes, and the host
// control drifts with them, so times scaled by it compare across runs and
// hosts where raw ones do not. Allocation, heap and failure figures do not
// depend on the host and are never scaled.
func endToEnd(m *meter, scale float64) []namedValue {
	return []namedValue{
		{"setup_s", median(m.setups) * scale, "s"},
		{"nodes_per_s", ratio(float64(m.nodes), m.timed.Seconds()*scale), "nodes/s"},
		{"latency_p50_ms", quantile(m.latMS, 0.50) * scale, "ms"},
		{"latency_p95_ms", quantile(m.latMS, 0.95) * scale, "ms"},
		{"alloc_bytes_per_node", ratio(float64(m.allocs), float64(m.nodes)), "B/node"},
		{"heap_live_mb", m.heapMB, "MB"},
		{"ok_frac", 1 - ratio(float64(m.failed), float64(m.attempted)), "ratio"},
	}
}

// perLayer computes the traced run's per-layer metrics. Times named *_s
// are mean seconds per traced op: self times of the spans the benchmark
// recorded around each layer call, or layer-reported durations (truediff
// phases, engine diff walls). A layer that does no work in the workload
// reads 0.
func perLayer(m *meter, r result, hashNS float64) []namedValue {
	self, total, opWall, ops := m.rec.selfTimes()
	perOp := func(d time.Duration) float64 { return ratio(d.Seconds(), float64(ops)) }
	l := m.layer
	okOps := float64(m.traced[1].ops)
	layerPerOp := func(name string) float64 { return ratio(l[name], okOps) }
	phases := l["phase.prepare"] + l["phase.shares"] + l["phase.select"] + l["phase.emit"]
	rateOf := func(rt rate) float64 { return ratio(float64(rt.nodes), rt.wall.Seconds()) }
	traced, untraced := rateOf(m.traced[1]), rateOf(m.traced[0])
	memoLookups := l["engine.memo_hits"] + l["engine.memo_misses"]
	return []namedValue{
		{"trace.op_wall_s", perOp(opWall), "s"},
		{"trace.remainder_s", perOp(self["op"]), "s"},
		{"trace.nodes_per_s", traced, "nodes/s"},
		{"trace.untraced_nodes_per_s", untraced, "nodes/s"},
		{"trace.overhead_frac", 1 - ratio(traced, untraced), "ratio"},
		{"host.sha256_ns_per_byte_before", r.HostBefore, "ns/B"},
		{"host.sha256_ns_per_byte_after", r.HostAfter, "ns/B"},
		{"pylang.parse_s", perOp(self["pylang.parse"]), "s"},
		{"pylang.parse_ns_per_node", ratio(float64(self["pylang.parse"].Nanoseconds()), l["parse_nodes"]), "ns/node"},
		{"tree.hash_ns_per_node", hashNS, "ns/node"},
		{"truediff.prepare_s", layerPerOp("phase.prepare"), "s"},
		{"truediff.shares_s", layerPerOp("phase.shares"), "s"},
		{"truediff.select_s", layerPerOp("phase.select"), "s"},
		{"truediff.emit_s", layerPerOp("phase.emit"), "s"},
		{"truediff.other_s", layerPerOp("truediff.other"), "s"},
		{"truediff.prepare_frac", ratio(l["phase.prepare"], phases), "ratio"},
		{"truediff.ns_per_node", ratio(l["diff_wall"]*1e9, l["diff_nodes"]), "ns/node"},
		{"truediff.linearity", linearity(m.linear), "ratio"},
		{"truediff.reuse_ratio", ratio(l["reused_nodes"], l["target_nodes"]), "ratio"},
		{"truediff.edits_per_change", r.EditsPerChange, "edits/change"},
		{"truechange.welltyped_s", perOp(self["truechange.welltyped"]), "s"},
		{"mtree.patch_s", perOp(self["mtree.patch"]), "s"},
		{"mtree.edits_applied", layerPerOp("edits_applied"), "count"},
		{"mtree.rollbacks", l["rollbacks"], "count"},
		{"engine.ingest_s", perOp(self["engine.ingest"]), "s"},
		{"engine.batch_s", perOp(self["engine.batch"]), "s"},
		{"engine.diff_other_s", layerPerOp("engine.diff_other"), "s"},
		{"engine.utilization", ratio(l["engine.diff_wall"], l["engine.capacity"]), "ratio"},
		{"engine.pool_hit_ratio", ratio(l["engine.pool_gets"]-l["engine.pool_misses"], l["engine.pool_gets"]), "ratio"},
		{"engine.store_hit_ratio", ratio(l["engine.store_hits"], l["engine.store_hits"]+l["engine.store_misses"]), "ratio"},
		{"engine.memo_lookups", memoLookups, "count"},
		{"engine.memo_hit_ratio", ratio(l["engine.memo_hits"], memoLookups), "ratio"},
		{"diffserve.client_codec_s", perOp(self["diffserve.client"]), "s"},
		{"diffserve.transport_s", perOp(self["diffserve.transport"]), "s"},
		{"diffserve.handler_s", perOp(total["diffserve.handler"]), "s"},
		{"diffserve.server_overhead_s", perOp(self["diffserve.handler"]), "s"},
		{"diffserve.request_bytes", ratio(l["request_bytes"], l["requests"]), "B"},
		{"diffserve.response_bytes", ratio(l["response_bytes"], l["requests"]), "B"},
		{"diffserve.batch_size_mean", ratio(l["batch_jobs"], l["batches"]), "count"},
		{"diffserve.sheds", l["sheds"], "count"},
		{"diffserve.resends", l["resends"], "count"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hashNsPerNode times tree.Clone with SHA-256 over the run's target trees:
// the cost of building hashed trees, which parsing and S-expression
// decoding pay on every node.
func hashNsPerNode(targets []*tree.Node) float64 {
	var nodes int
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		for _, t := range targets {
			tree.Clone(t, uri.NewAllocator(), tree.SHA256)
			nodes += t.Size()
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(nodes))
}

func printSummary(w io.Writer, r result) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%t\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(w, "inputs   fingerprint=sha256:%s files=%d changes=%d nodes=%d gen_s=%.3f\n",
		r.Fingerprint, r.Files, r.Changes, r.InputNodes, r.GenS)
	fmt.Fprintf(w, "run      passes=%d ops=%d latency_samples=%d timed_s=%.3f\n",
		r.Passes, r.Attempted, r.Samples, r.TimedS)
	fmt.Fprintf(w, "oracle   failed_frac=%g (%d of %d ops) mismatches=%d\n",
		r.FailedFrac, r.Failed, r.Attempted, r.Mismatches)
	fmt.Fprintf(w, "concise  edits_per_change=%.4f\n", r.EditsPerChange)
	fmt.Fprintf(w, "host     sha256_ns_per_byte before=%.4f after=%.4f per-pass median=%.4f scale=%.4f\n",
		r.HostBefore, r.HostAfter, median(r.Control), r.HostScale)
	for i, nv := range r.Metrics {
		if r.Raw != nil && r.Raw[i].Value != nv.Value {
			fmt.Fprintf(w, "  %-32s %14.6g %-8s (raw %.6g)\n", nv.Name, nv.Value, nv.Unit, r.Raw[i].Value)
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", nv.Name, nv.Value, nv.Unit)
	}
}

func writeResults(cfg config, r result, m *meter) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace)))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if m.rec != nil {
		return m.rec.write(stem + "-spans.jsonl")
	}
	return nil
}
