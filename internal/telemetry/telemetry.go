// Package telemetry is the observability layer of the diff stack: lock-free
// log-bucketed histograms, the per-diff PhaseTimes record of the four
// truediff phases, spans, a Prometheus/expvar/pprof HTTP exposition
// handler, and a JSONL trace sink for offline analysis.
//
// The package depends on the standard library only and is deliberately
// allocation-light on the hot path: recording a value into a Histogram is
// three atomic adds, and filling a diff's PhaseTimes costs a handful of
// monotonic clock reads. Everything heavier (text exposition, JSON
// encoding, quantile estimation, phase spans) happens after the diff, from
// the record.
//
// The layering is strict: telemetry knows nothing about trees, schemas, or
// engines. internal/truediff fills one PhaseTimes per diff in its scratch;
// internal/engine merges those into engine-level histograms, rebuilds phase
// spans from them (PhaseSpans), and exposes everything through the
// Gatherer interface that Handler serves.
package telemetry

import "time"

// Phase identifies one of the four steps of the truediff algorithm
// (paper §4). Each diff passes through all four, in order.
type Phase uint8

const (
	// PhasePrepare is the per-diff preparation preceding the matching:
	// allocator derivation, schema validation, and scratch reset. (The
	// paper's step 1, digest preparation, happens at tree construction;
	// its residual per-diff cost is what this phase captures.)
	PhasePrepare Phase = iota
	// PhaseShares is step 2: the simultaneous traversal that builds the
	// subtree registry and assigns shares (find reuse candidates).
	PhaseShares
	// PhaseSelect is step 3: greedy highest-first candidate selection.
	PhaseSelect
	// PhaseEmit is step 4: edit emission and patched-tree construction.
	PhaseEmit

	// NumPhases is the number of phases; PhaseTimes is indexed by Phase.
	NumPhases = 4
)

// String returns the phase's short lowercase name, used as the `phase`
// label value in the Prometheus exposition and as JSONL field suffixes.
func (p Phase) String() string {
	switch p {
	case PhasePrepare:
		return "prepare"
	case PhaseShares:
		return "shares"
	case PhaseSelect:
		return "select"
	case PhaseEmit:
		return "emit"
	}
	return "unknown"
}

// PhaseTimes holds one diff's per-phase durations, indexed by Phase.
type PhaseTimes [NumPhases]time.Duration

// Total sums the four phase durations. It is at most the diff's wall time
// (the difference is instrumentation and call overhead).
func (t PhaseTimes) Total() time.Duration {
	var sum time.Duration
	for _, d := range t {
		sum += d
	}
	return sum
}
