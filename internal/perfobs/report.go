// Package perfobs is the performance-observability harness: a fixed matrix
// of benchmark scenarios (corpus sizes × edit profiles × engine
// configurations × baseline algorithms), a runner that executes the matrix
// with warmup and outlier-robust statistics, a schema-versioned JSON report
// format (the BENCH_<n>.json trajectory at the repository root), and a
// comparator that turns two reports into a CI regression gate.
//
// The package depends on the repository's own diff stack and the standard
// library only. cmd/bench is the CLI front end; docs/BENCHMARKING.md
// documents the report schema and the gating rule.
package perfobs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// SchemaVersion identifies the BENCH_<n>.json layout. Readers must reject
// reports with a different major version; the comparator does.
const SchemaVersion = 1

// Report is one benchmark run: environment fingerprint plus one result per
// executed scenario. It is the unit stored as BENCH_<n>.json.
type Report struct {
	// SchemaVersion is always SchemaVersion at write time.
	SchemaVersion int `json:"schema_version"`
	// CreatedUnix is the run's start time (Unix seconds, UTC).
	CreatedUnix int64 `json:"created_unix"`
	// Env fingerprints the machine and toolchain the run used. Compare
	// reports from like environments only; the comparator warns (but does
	// not fail) on mismatched fingerprints.
	Env EnvInfo `json:"env"`
	// Smoke marks reduced-matrix runs (cmd/bench -smoke); their numbers
	// use fewer repetitions and are gated at a wider tolerance.
	Smoke bool `json:"smoke,omitempty"`
	// Scenarios holds one entry per executed scenario, sorted by name.
	Scenarios []ScenarioResult `json:"scenarios"`
}

// EnvInfo fingerprints the environment a report was produced in.
type EnvInfo struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	VCSRevision string `json:"vcs_revision,omitempty"`
}

// CaptureEnv reads the current environment fingerprint.
func CaptureEnv() EnvInfo {
	e := EnvInfo{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.VCSRevision = s.Value
			}
		}
	}
	return e
}

// Sample summarizes one metric's repetition samples with outlier-robust
// statistics: the gate compares medians and uses the IQR as the noise
// band, so a single cold repetition cannot fail CI.
type Sample struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	// IQR is the interquartile range Q3−Q1, the scenario's noise band.
	IQR float64 `json:"iqr"`
}

// Summarize condenses raw repetition samples into a Sample.
func Summarize(xs []float64) Sample {
	if len(xs) == 0 {
		return Sample{}
	}
	s := stats.Summarize(xs)
	return Sample{
		N:      s.N,
		Min:    s.Min,
		Median: s.Median,
		P95:    stats.Percentile(xs, 0.95),
		Max:    s.Max,
		Mean:   s.Mean,
		IQR:    s.Q3 - s.Q1,
	}
}

// ScenarioResult is one scenario's measured outcome.
type ScenarioResult struct {
	// Name is the scenario's stable identity (Scenario.Name()); the
	// comparator matches old and new results by it.
	Name string `json:"name"`
	// System, Corpus, and Edits echo the scenario definition so reports
	// are self-describing.
	System string `json:"system"`
	Corpus string `json:"corpus"`
	Edits  string `json:"edits"`
	// Workers and Memo describe engine scenarios (Workers 0 otherwise);
	// service scenarios set Workers and Clients.
	Workers int  `json:"workers,omitempty"`
	Memo    bool `json:"memo,omitempty"`
	Clients int  `json:"clients,omitempty"`

	// Pairs is the number of file changes diffed per repetition; Nodes the
	// summed input size (source+target) of one repetition.
	Pairs int   `json:"pairs"`
	Nodes int64 `json:"nodes"`
	// Warmup and Reps record how the samples were taken.
	Warmup int `json:"warmup"`
	Reps   int `json:"reps"`

	// WallNS summarizes per-repetition wall time (nanoseconds for the
	// whole batch of Pairs diffs). This is the gated metric.
	WallNS Sample `json:"wall_ns"`
	// NodesPerSec summarizes per-repetition throughput.
	NodesPerSec Sample `json:"nodes_per_sec"`
	// AllocBytesPerRep summarizes heap allocation per repetition
	// (runtime/metrics /gc/heap/allocs:bytes deltas).
	AllocBytesPerRep Sample `json:"alloc_bytes_per_rep"`
	// RequestNS summarizes client-observed per-request latency over all
	// measured repetitions — the service-level view (queueing, coalescing,
	// transport included). Present for service scenarios only; its P95 is
	// the number the daemon's capacity planning reads.
	RequestNS *Sample `json:"request_ns,omitempty"`

	// EditsTotal is the summed compound edit count of one repetition
	// (identical across repetitions: the scenarios are deterministic).
	// The comparator gates on it as the conciseness metric.
	EditsTotal int `json:"edits_total"`

	// Quality columns, measured by an untimed probe repetition (truediff
	// and engine systems only; see docs/OBSERVABILITY.md). ReuseRatioMedian
	// is the per-pair median fraction of target nodes produced by reuse;
	// EditsPerChangedNode the aggregate compound-edits-per-touched-node
	// conciseness ratio.
	ReuseRatioMedian    float64 `json:"reuse_ratio_median,omitempty"`
	EditsPerChangedNode float64 `json:"edits_per_changed_node,omitempty"`
	// BaselinedPairs counts pairs small enough for the exact
	// minimal-script baseline; OptimalityGap aggregates their compound
	// edits over the exact minimum, minus one (negative when truechange
	// moves beat the classical edit distance). Zero BaselinedPairs means
	// the corpus was too large to baseline and OptimalityGap is unset.
	BaselinedPairs int     `json:"baselined_pairs,omitempty"`
	OptimalityGap  float64 `json:"optimality_gap,omitempty"`

	// PhaseNS breaks one repetition's diff time into the four truediff
	// phases (median over repetitions, nanoseconds summed over Pairs; for
	// engine scenarios the sum is divided by Workers, so the phases add up
	// to at most the repetition's wall time). Empty for baseline systems,
	// which have no phase decomposition.
	PhaseNS map[string]float64 `json:"phase_ns,omitempty"`
	// PhaseAllocBytes is the per-phase heap-allocation profile from one
	// single-threaded probe repetition (bytes summed over Pairs). Present
	// for the truediff system only.
	PhaseAllocBytes map[string]int64 `json:"phase_alloc_bytes,omitempty"`

	// Runtime samples the Go runtime around the measured repetitions.
	Runtime RuntimeSample `json:"runtime"`
	// Utilization is the engine worker-pool busy fraction over the
	// measured repetitions (0 for non-engine systems).
	Utilization float64 `json:"utilization,omitempty"`
}

// RuntimeSample is the runtime/metrics view of one scenario's measured
// repetitions (deltas where the metric is cumulative).
type RuntimeSample struct {
	// AllocBytes is the total heap allocation over all measured
	// repetitions (/gc/heap/allocs:bytes delta).
	AllocBytes uint64 `json:"alloc_bytes"`
	// GCCycles counts completed GC cycles during the measurement
	// (/gc/cycles/total:gc-cycles delta).
	GCCycles uint64 `json:"gc_cycles"`
	// GCPauseNS totals stop-the-world pause time during the measurement
	// (runtime.MemStats.PauseTotalNs delta).
	GCPauseNS uint64 `json:"gc_pause_ns"`
	// HeapLiveBytes is the live-object heap footprint after the last
	// repetition (/memory/classes/heap/objects:bytes).
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	// Goroutines is the goroutine count after the last repetition
	// (/sched/goroutines:goroutines).
	Goroutines uint64 `json:"goroutines"`
}

// WriteFile writes the report as deterministic, human-diffable JSON.
func (r *Report) WriteFile(path string) error {
	sort.Slice(r.Scenarios, func(i, j int) bool { return r.Scenarios[i].Name < r.Scenarios[j].Name })
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("perfobs: encode report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile parses a BENCH_<n>.json report and checks its schema version.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perfobs: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfobs: parse %s: %w", path, err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("perfobs: %s has schema version %d, this build reads %d",
			path, r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// benchPathRE matches the BENCH_<n>.json trajectory files.
var benchPathRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// NextBenchPath returns the next free BENCH_<n>.json path in dir: one past
// the highest existing index, or BENCH_0.json in a fresh directory.
func NextBenchPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("perfobs: %w", err)
	}
	next := 0
	for _, e := range entries {
		if m := benchPathRE.FindStringSubmatch(e.Name()); m != nil {
			n, err := strconv.Atoi(m[1])
			if err == nil && n+1 > next {
				next = n + 1
			}
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}

// WriteSummary renders the report as a human-readable table: one line per
// scenario with median wall time, throughput, edit totals, and the phase
// split where available.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "benchmark report (schema v%d, %s %s/%s, %d CPUs, go %s)\n",
		r.SchemaVersion, revShort(r.Env.VCSRevision), r.Env.GOOS, r.Env.GOARCH,
		r.Env.NumCPU, r.Env.GoVersion)
	fmt.Fprintf(w, "%-34s %10s %12s %9s %8s %6s %6s  %s\n",
		"scenario", "median", "nodes/s", "±iqr", "edits", "reuse", "gap", "phase split")
	for i := range r.Scenarios {
		s := &r.Scenarios[i]
		reuse, gap := "-", "-"
		if s.ReuseRatioMedian > 0 {
			reuse = fmt.Sprintf("%.0f%%", 100*s.ReuseRatioMedian)
		}
		if s.BaselinedPairs > 0 {
			gap = fmt.Sprintf("%+.0f%%", 100*s.OptimalityGap)
		}
		fmt.Fprintf(w, "%-34s %10v %12.0f %9v %8d %6s %6s  %s\n",
			s.Name,
			time.Duration(s.WallNS.Median).Round(time.Microsecond),
			s.NodesPerSec.Median,
			time.Duration(s.WallNS.IQR).Round(time.Microsecond),
			s.EditsTotal,
			reuse, gap,
			phaseSplit(s.PhaseNS))
	}
}

// phaseSplit renders the four-phase decomposition as percentage shares in
// phase order, or "-" when the scenario has none (baseline systems).
func phaseSplit(phases map[string]float64) string {
	if len(phases) == 0 {
		return "-"
	}
	var total float64
	for _, v := range phases {
		total += v
	}
	if total <= 0 {
		return "-"
	}
	out := ""
	for p := 0; p < telemetry.NumPhases; p++ {
		name := telemetry.Phase(p).String()
		if p > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s %.0f%%", name, 100*phases[name]/total)
	}
	return out
}

func revShort(rev string) string {
	if rev == "" {
		return "unversioned"
	}
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}
