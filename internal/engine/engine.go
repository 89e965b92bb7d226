// Package engine runs truediff at corpus scale: batches of (source, target)
// tree pairs are fanned over a bounded worker pool, per-diff working state
// (subtree registries, assignment maps, edit buffers, selection heaps) is
// recycled through a sync.Pool instead of reallocated per diff, and the
// tree-preparation work that dominates truediff's cost (paper §6) is
// amortized across the batch at two levels:
//
//   - a whole-tree intern store keyed by content digest makes re-ingesting
//     a tree the engine has seen before a map lookup instead of a clone —
//     the common case in a version-history replay, where one commit's
//     "after" is the next commit's "before";
//   - a cross-diff digest memo shared by all workers avoids rehashing
//     subtrees that recur across caller-allocated ingests — unchanged files
//     recur commit after commit, and idiomatic code repeats whole
//     sub-expressions (ROADMAP: corpus-scale workloads).
//
// The engine is the concurrency boundary of the system: a Differ is
// immutable and an Engine adds only concurrency-safe state on top (the
// intern store, the striped memo, the scratch pool, atomic counters), so
// one Engine may be shared freely between goroutines. Trees enter the
// engine through Ingest; batches run through DiffBatch, which honours
// context cancellation; cumulative counters are read with Snapshot.
package engine

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/derrors"
	"repro/internal/faultinject"
	"repro/internal/quality"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// Config configures an Engine. The zero value is usable: paper-standard
// diff options, SHA-256 hashing, one worker per CPU, memo enabled.
type Config struct {
	// Workers bounds the goroutines a DiffBatch fans out over. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Workers int
	// Diff configures the underlying differ (equivalence mode, selection
	// order, literal-mismatch handling).
	Diff truediff.Options
	// Hash selects the subtree hash used by Ingest. The zero value is
	// tree.SHA256, the paper's choice.
	Hash tree.HashKind
	// DisableMemo turns off the cross-diff digest memo; Ingest then hashes
	// every subtree from scratch. Intended for ablation measurements.
	DisableMemo bool

	// Explain, when true, collects per-edit provenance for every diff: each
	// successful PairResult carries a truediff.Explanation whose records are
	// index-aligned with the script's edits (see truediff.Options.Explain).
	// Fallback (root-replacement) results carry no explanation — the real
	// diff never finished. Off (the default), the diff path pays nothing.
	Explain bool
	// QualityBaseline, when positive, additionally computes the exact
	// minimal-script baseline (quality.MinimalEdits, the Zhang–Shasha tree
	// edit distance) for diffs whose trees are both within that node count,
	// filling DiffStats.MinimalEdits and OptimalityGap. The baseline is
	// quadratic in tree size; quality.DefaultBaselineMaxNodes is a sensible
	// cap. Zero (the default) disables it; the cheap conciseness metrics
	// (ChangedNodes, ReuseRatio, ratios) are always computed.
	QualityBaseline int

	// Tracer, when non-nil, receives span events for every diff the engine
	// runs (BeginDiff, one Phase per truediff step, EndDiff). With
	// Workers > 1 the tracer observes diffs from several goroutines at
	// once, so it must be concurrency-safe; per-diff ordering holds within
	// each worker. Equivalent to setting Diff.Tracer, which it overrides.
	Tracer telemetry.Tracer
	// Observer, when non-nil, is called synchronously after every diff —
	// successful, failed, or short-circuited — with that diff's event.
	// It runs on worker goroutines: keep it cheap and concurrency-safe
	// (telemetry.TraceWriter is; so is recording into histograms).
	Observer func(DiffEvent)
	// SlowDiffThreshold enables slow-diff logging: completed diffs whose
	// wall time meets or exceeds it are reported through SlowDiffLog. Zero
	// disables the check.
	SlowDiffThreshold time.Duration
	// SlowDiffLog overrides where slow diffs are reported. Nil logs one
	// line per slow diff via Logger when set, else the standard library
	// logger.
	SlowDiffLog func(DiffEvent)
	// Spans, when non-nil, turns on distributed tracing: every diff runs
	// under an "engine.diff" span (parented on Pair.Trace when valid) and
	// the four truediff phases are synthesized into child spans. Nil (the
	// default) costs nothing on the diff path beyond a pointer comparison.
	Spans telemetry.SpanSink
	// Logger, when non-nil, receives structured records for noteworthy
	// diffs — failures (error level), fallbacks and slow diffs (warn) —
	// with trace_id/span_id correlation when the pair carried a trace.
	// Routine successful diffs are never logged; use Observer or Tracer
	// for those.
	Logger *slog.Logger
	// SLO parameterizes the engine's rolling-window objective accounting
	// (availability = non-error diffs; latency objective on diff wall
	// time). The zero value selects the defaults documented on
	// telemetry.SLOConfig; accounting is always on (lock-free counters).
	SLO telemetry.SLOConfig

	// DiffTimeout bounds each individual diff: a diff still running when
	// the deadline passes is aborted at its next cancellation checkpoint
	// with an error matching derrors.ErrDiffTimeout. The deadline starts
	// when the diff starts (not when the batch does), so large batches
	// don't starve late pairs. Zero disables the per-diff deadline.
	DiffTimeout time.Duration
	// CheckpointEvery overrides how many nodes a diff processes between
	// cancellation-checkpoint polls (truediff.Options.CheckpointEvery).
	// Zero selects truediff.DefaultCheckpointEvery. Equivalent to setting
	// Diff.CheckpointEvery, which it overrides when positive.
	CheckpointEvery int
	// Fallback selects the graceful-degradation policy for diffs that
	// panic, overrun DiffTimeout, or emit an ill-typed script. See
	// FallbackMode.
	Fallback FallbackMode
	// Faults, when non-nil, arms deterministic fault injection at the
	// engine's sites (FaultSiteDiff, FaultSiteCheckpoint) and is forwarded
	// to patching helpers. Intended for resilience tests; nil in
	// production.
	Faults *faultinject.Injector
}

// Pprof label keys the engine publishes when profiling is enabled
// (truediff.Options.ProfileLabels, structdiff.WithProfileLabels): each
// batch worker runs under PprofWorkerLabel (the worker's index) and each
// labelled pair under PprofPairLabel (Pair.Label), with the differ's
// phase label (truediff.PprofPhaseLabel) nested innermost.
const (
	PprofPairLabel   = "pair"
	PprofWorkerLabel = "worker"
)

// Engine diffs batches of tree pairs concurrently. Create one with New and
// share it between goroutines; all methods are concurrency-safe.
type Engine struct {
	sch    *sig.Schema
	differ *truediff.Differ
	cfg    Config
	memo   *tree.DigestMemo
	pool   sync.Pool // of *truediff.Scratch
	store  treeStore
	uris   struct {
		mu   sync.Mutex
		next uri.URI
	}
	m   metrics
	h   histograms
	slo *telemetry.SLO

	// life tracks the engine's shutdown state: begin/end bracket every
	// entry point, and Close flips closed then waits for the in-flight
	// count to drain before releasing the caches.
	life struct {
		mu     sync.Mutex
		closed bool
		active sync.WaitGroup
	}
}

// histograms holds the engine-level distributions: overall diff latency,
// per-phase latency (merged from scratch-local timings on each diff's
// completion), compound edit counts, and input tree sizes. All lock-free;
// see telemetry.Histogram for the bucket layout.
type histograms struct {
	latency telemetry.Histogram // per-diff wall time, nanoseconds
	phases  [telemetry.NumPhases]telemetry.Histogram
	edits   telemetry.Histogram // compound edits per script
	nodes   telemetry.Histogram // input tree sizes (two per diff)

	// Quality distributions (per diff, stored in permille so the integer
	// histogram resolves ratios; exposed with Scale 1e-3):
	reuse        telemetry.Histogram // reuse ratio × 1000
	editsChanged telemetry.Histogram // compound edits per changed node × 1000
	scriptTree   telemetry.Histogram // compound edits per target node × 1000
}

// treeStore interns engine-managed trees by content digest, so ingesting a
// tree the engine has seen before — the common case in a version-history
// replay, where one commit's "after" is the next commit's "before" — returns
// the already-ingested tree instead of cloning and hashing a new one.
// Interned trees are immutable and live in the engine's own URI space, so
// sharing them between pairs (even concurrently, even as both sides of one
// pair) is safe.
type treeStore struct {
	mu sync.RWMutex
	m  map[string]*tree.Node
}

func (s *treeStore) get(key string) *tree.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

// put interns n under key, keeping the first tree stored: a racing duplicate
// ingest returns the canonical tree so later pointer comparisons hold.
func (s *treeStore) put(key string, n *tree.Node) *tree.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*tree.Node)
	}
	if old := s.m[key]; old != nil {
		return old
	}
	s.m[key] = n
	return n
}

func (s *treeStore) len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

func (s *treeStore) clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = nil
}

// reserveBlock carves n consecutive URIs out of the engine's URI space,
// first advancing it past min, and returns the URI just before the block
// (i.e. an allocator that Reserved the returned value hands out exactly the
// block). Engine-managed trees and the scripts diffed over them draw from
// this one space, so their URIs never collide even across shared trees.
func (e *Engine) reserveBlock(min uri.URI, n int) uri.URI {
	e.uris.mu.Lock()
	if e.uris.next < min {
		e.uris.next = min
	}
	base := e.uris.next
	e.uris.next += uri.URI(n)
	e.uris.mu.Unlock()
	return base
}

// New returns an Engine for trees of the given schema.
func New(sch *sig.Schema, cfg Config) *Engine {
	if cfg.Tracer != nil {
		cfg.Diff.Tracer = cfg.Tracer
	}
	if cfg.CheckpointEvery > 0 {
		cfg.Diff.CheckpointEvery = cfg.CheckpointEvery
	}
	e := &Engine{
		sch:    sch,
		differ: truediff.NewWithOptions(sch, cfg.Diff),
		cfg:    cfg,
		slo:    telemetry.NewSLO(cfg.SLO),
	}
	if !cfg.DisableMemo {
		// The namespace partitions memo keys by schema and hash kind, so
		// digests cached for one language or algorithm can never leak into
		// another if a memo were ever shared more widely.
		e.memo = tree.NewDigestMemo(fmt.Sprintf("%s#%d|", sch.Fingerprint(), cfg.Hash))
	}
	e.pool.New = func() any {
		e.m.poolMisses.Add(1)
		return truediff.NewScratch()
	}
	return e
}

// Schema returns the schema the engine diffs against.
func (e *Engine) Schema() *sig.Schema { return e.sch }

// begin registers one in-flight entry-point call, failing if Close has
// already begun. Every successful begin must be paired with e.life.active.Done().
func (e *Engine) begin() error {
	e.life.mu.Lock()
	defer e.life.mu.Unlock()
	if e.life.closed {
		return fmt.Errorf("engine: %w", derrors.ErrEngineClosed)
	}
	e.life.active.Add(1)
	return nil
}

// Close shuts the engine down: it waits for in-flight Diff and DiffBatch
// calls to complete, then releases the whole-tree intern store so long-held
// engines stop pinning every tree they ever interned. Calls entering after
// Close has begun fail with an error matching derrors.ErrEngineClosed.
// Close is idempotent and always returns nil; the error result exists so
// the engine satisfies the same service interface as remote clients, whose
// Close can genuinely fail.
func (e *Engine) Close() error {
	e.life.mu.Lock()
	already := e.life.closed
	e.life.closed = true
	e.life.mu.Unlock()
	if already {
		return nil
	}
	e.life.active.Wait()
	e.store.clear()
	return nil
}

// Differ exposes the underlying (immutable, goroutine-safe) differ.
func (e *Engine) Differ() *truediff.Differ { return e.differ }

func (e *Engine) workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Ingest prepares a tree for diffing through this engine.
//
// With a non-nil alloc, Ingest clones root with fresh URIs from alloc and
// hashes the clone against the engine's shared digest memo, so subtrees
// whose digests were computed for any earlier ingest are not rehashed. The
// returned tree is what Clone would have produced; only the hashing work
// differs. Use this mode when the caller owns the URI space (e.g. to keep
// URIs small and deterministic per document).
//
// With a nil alloc, the tree enters the engine-managed store: its URIs come
// from the engine's own space (globally unique across everything the engine
// has ingested), and trees are interned by content digest — re-ingesting a
// content-identical tree returns the previously ingested tree outright, at
// the cost of a single map lookup. This is the fast path for batch replays,
// where consecutive versions of a document share endpoints. Trees that
// already carry digests of the engine's hash kind are admitted by copying
// those digests (digests never depend on URIs), skipping hashing entirely.
func (e *Engine) Ingest(root *tree.Node, alloc *uri.Allocator) *tree.Node {
	if root == nil {
		return nil
	}
	if alloc != nil {
		c := tree.CloneMemo(root, alloc, e.cfg.Hash, e.memo)
		e.m.ingestedTrees.Add(1)
		e.m.ingestedNodes.Add(uint64(c.Size()))
		return c
	}
	prehashed := tree.HashedWith(root, e.cfg.Hash)
	if prehashed {
		if c := e.store.get(root.ExactHash()); c != nil {
			e.m.storeHits.Add(1)
			return c
		}
	}
	la := uri.NewAllocator()
	la.Reserve(e.reserveBlock(0, root.Size()))
	var c *tree.Node
	if prehashed {
		c = tree.CloneKeepDigests(root, la)
	} else {
		c = tree.CloneMemo(root, la, e.cfg.Hash, e.memo)
	}
	e.m.storeMisses.Add(1)
	e.m.ingestedTrees.Add(1)
	e.m.ingestedNodes.Add(uint64(c.Size()))
	return e.store.put(c.ExactHash(), c)
}

// Pair is one diffing task of a batch.
type Pair struct {
	Source *tree.Node
	Target *tree.Node
	// Alloc supplies fresh URIs for nodes the diff loads. It must dominate
	// every URI in Source and Target (pass the allocator the trees were
	// built or ingested with). If nil, the engine carves a URI block out of
	// its own space, past every URI of both trees — the right choice for
	// engine-managed (nil-alloc-ingested) trees, whose URI numbering then
	// stays globally collision-free, at the cost of load URIs that depend
	// on batch scheduling. Allocators are not concurrency-safe, so pairs of
	// one batch must not share an Alloc.
	Alloc *uri.Allocator
	// Label identifies the pair in observer events and trace records (for
	// example a file path). The engine does not interpret it.
	Label string
	// Trace, when valid, is the distributed-trace context this pair runs
	// under: the engine's "engine.diff" span is parented on it, and
	// observer events carry it for log and trace-record correlation. The
	// context travels with the pair (not the batch ctx) because batching
	// layers deliberately detach pairs from their request contexts.
	Trace telemetry.SpanContext
}

// DiffStats instruments one diff of a batch.
type DiffStats struct {
	// Wall is the time the diff itself took (excluding queueing).
	Wall time.Duration
	// Edits is the script's compound edit count, the paper's conciseness
	// metric.
	Edits int
	// SourceSize and TargetSize count the nodes of the input trees.
	SourceSize int
	TargetSize int
	// ReuseRatio is the fraction of target nodes obtained by reusing
	// source nodes rather than loading fresh ones: 1 means the diff moved
	// and updated existing structure only, 0 means it rebuilt everything.
	ReuseRatio float64
	// ChangedNodes counts the nodes the script touches (loads, unloads,
	// literal updates, moved subtree roots); EditsPerChangedNode and
	// ScriptTreeRatio are the conciseness ratios built on it (see
	// quality.Metrics). All zero for an empty script.
	ChangedNodes        int
	EditsPerChangedNode float64
	ScriptTreeRatio     float64
	// MinimalEdits and OptimalityGap carry the exact minimal-script
	// baseline (quality.MinimalEdits) when Baselined, which requires
	// Config.QualityBaseline > 0 and both trees within that node cap. The
	// gap can be negative: truechange moves beat the classical edit
	// distance's delete+reinsert.
	MinimalEdits  int
	OptimalityGap float64
	Baselined     bool
	// Phases breaks Wall down into the four truediff steps (all zero for
	// short-circuited pairs, where no step ran).
	Phases telemetry.PhaseTimes
	// SourceInterned and TargetInterned report whether the respective
	// input tree is the canonical copy of the engine's whole-tree intern
	// store (engine-managed ingest). Identical marks pairs whose endpoints
	// are the same tree: the diff short-circuited to an empty script.
	SourceInterned bool
	TargetInterned bool
	Identical      bool
	// Fallback marks pairs served by graceful degradation: the real diff
	// panicked, timed out, or emitted an ill-typed script, and the result
	// is a synthesized root-replacement script instead (Edits and
	// ReuseRatio describe that script, so expect ReuseRatio 0). Always
	// false under FallbackNone.
	Fallback bool
}

// PairResult is the outcome of one diffing task.
type PairResult struct {
	Result *truediff.Result
	Stats  DiffStats
	// Explain is the per-edit provenance of the script, index-aligned with
	// Result.Script.Edits. Non-nil only when Config.Explain is set and the
	// diff completed without fallback.
	Explain *truediff.Explanation
	Err     error
}

// Diff runs a single diff through the engine: scratch state is drawn from
// the pool and the per-diff counters feed Snapshot. See truediff.Differ.Diff
// for the contract on source, target, and alloc. A nil ctx is treated as
// context.Background(), matching DiffBatch; a cancellable ctx (or a
// configured DiffTimeout) is polled at cancellation checkpoints, so the
// diff aborts mid-algorithm rather than only between calls.
func (e *Engine) Diff(ctx context.Context, source, target *tree.Node, alloc *uri.Allocator) (*truediff.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := e.begin(); err != nil {
		return nil, err
	}
	defer e.life.active.Done()
	pr := e.diffOne(ctx, Pair{Source: source, Target: target, Alloc: alloc})
	return pr.Result, pr.Err
}

// DiffBatch diffs every pair, fanning the work over the engine's worker
// pool, and returns one result per pair, index-aligned with pairs. A failed
// pair carries its error in its slot; DiffBatch itself only returns an
// error when ctx is cancelled, in which case pairs that never ran have
// their Err set to the context error, and pairs that were mid-diff abort
// at their next cancellation checkpoint with the context's cause in their
// slot. Every pair therefore ends with exactly one of Result or Err set.
// A nil ctx is treated as context.Background(), matching Diff.
func (e *Engine) DiffBatch(ctx context.Context, pairs []Pair) ([]PairResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.begin(); err != nil {
		return nil, err
	}
	defer e.life.active.Done()
	e.m.batches.Add(1)
	results := make([]PairResult, len(pairs))
	if len(pairs) == 0 {
		return results, ctx.Err()
	}

	workers := e.workers()
	if workers > len(pairs) {
		workers = len(pairs)
	}
	// The queue-depth gauge counts pairs submitted but not yet picked up by
	// a worker; every exit path below drains it back to its prior level.
	e.m.queueDepth.Add(int64(len(pairs)))
	started := time.Now()
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// Each slot of results is written by exactly one worker, so no
			// further synchronization is needed beyond wg.Wait.
			drain := func(ctx context.Context) {
				for i := range idx {
					e.m.queueDepth.Add(-1)
					results[i] = e.diffOne(ctx, pairs[i])
				}
			}
			if e.cfg.Diff.ProfileLabels {
				pprof.Do(ctx, pprof.Labels(PprofWorkerLabel, strconv.Itoa(w)), drain)
			} else {
				drain(ctx)
			}
		}(w)
	}

	cancelled := false
feed:
	for i := range pairs {
		select {
		case idx <- i:
		case <-ctx.Done():
			cancelled = true
			break feed
		}
	}
	close(idx)
	wg.Wait()
	// Capacity is what the pool could have diffed this batch (elapsed time
	// across every worker); Snapshot.Utilization divides busy time by it.
	e.m.capacityNanos.Add(uint64(time.Since(started).Nanoseconds()) * uint64(workers))

	if cancelled {
		err := fmt.Errorf("engine: batch cancelled: %w", context.Cause(ctx))
		for i := range results {
			if results[i].Result == nil && results[i].Err == nil {
				results[i].Err = err
				e.m.queueDepth.Add(-1) // never dequeued by a worker
			}
		}
		return results, err
	}
	return results, nil
}

// diffOne wraps diffPair with the per-diff observability shell: the
// "engine.diff" span (when Config.Spans is set) with phase child spans
// synthesized via a context-carried tracer, and the SLO observation. With
// tracing off the extra cost is two clock reads and a handful of atomic
// adds.
func (e *Engine) diffOne(ctx context.Context, p Pair) PairResult {
	// Labels are caller-supplied (e.g. by remote diffserve clients) and
	// fan out to every observability surface — span attributes, pprof
	// labels, trace records, flight-recorder pages, Prometheus label
	// values. Bound and neutralize them once here.
	p.Label = telemetry.SanitizeLabel(p.Label)
	start := time.Now()
	span := telemetry.StartSpanAt(e.cfg.Spans, p.Trace, "engine.diff", start)
	if span != nil {
		// Children (phase spans, the observer's trace record) hang off the
		// engine span, not the caller's request span.
		p.Trace = span.Context()
		ctx = telemetry.ContextWithTracer(ctx, telemetry.PhaseSpans(e.cfg.Spans, p.Trace))
	}
	pr := e.diffPair(ctx, p)
	wall := time.Since(start)
	e.slo.Observe(wall, pr.Err == nil)
	if span != nil {
		if p.Label != "" {
			span.SetAttr("pair", p.Label)
		}
		span.SetAttr("source_nodes", pr.Stats.SourceSize)
		span.SetAttr("target_nodes", pr.Stats.TargetSize)
		span.SetAttr("edits", pr.Stats.Edits)
		if pr.Stats.Identical {
			span.SetAttr("identical", true)
		}
		if pr.Stats.Fallback {
			span.SetAttr("fallback", true)
		}
		if pr.Err != nil {
			span.SetAttr("err", pr.Err.Error())
		}
		span.EndAt(start.Add(wall))
	}
	return pr
}

// diffPair executes one task with pooled scratch state. The diff runs
// inside the panic-isolation boundary (runDiff) with a cancellation
// checkpoint derived from ctx, Config.DiffTimeout, and the fault injector;
// failures eligible for graceful degradation are served a synthesized
// root-replacement script instead when Config.Fallback asks for it.
func (e *Engine) diffPair(ctx context.Context, p Pair) PairResult {
	if p.Source != nil && p.Source == p.Target {
		// Interned trees make content equality a pointer comparison: both
		// ingests hit the same store entry, so the minimal script is empty
		// and the patched tree is the source itself.
		st := DiffStats{
			SourceSize:     p.Source.Size(),
			TargetSize:     p.Target.Size(),
			ReuseRatio:     1,
			SourceInterned: true,
			TargetInterned: true,
			Identical:      true,
		}
		if e.cfg.QualityBaseline > 0 && st.SourceSize <= e.cfg.QualityBaseline {
			// Identical trees are trivially minimal: distance 0, gap 0.
			st.Baselined = true
		}
		e.m.diffs.Add(1)
		e.m.sourceNodes.Add(uint64(st.SourceSize))
		e.m.targetNodes.Add(uint64(st.TargetSize))
		// The pair was served in effectively zero time; it belongs in the
		// latency and size distributions, but not in the phase histograms
		// (no truediff step ran).
		e.h.latency.Record(0)
		e.h.edits.Record(0)
		e.h.nodes.Record(int64(st.SourceSize))
		e.h.nodes.Record(int64(st.TargetSize))
		e.recordQuality(st)
		pr := PairResult{
			Result: &truediff.Result{Script: &truechange.Script{}, Patched: p.Source},
			Stats:  st,
		}
		if e.cfg.Explain {
			// An empty script explains itself; the empty record set keeps
			// the index alignment invariant for downstream consumers.
			pr.Explain = &truediff.Explanation{
				SourceSize: st.SourceSize,
				TargetSize: st.TargetSize,
				Edits:      []truediff.EditProvenance{},
			}
		}
		return e.finish(p, pr)
	}

	e.m.poolGets.Add(1)
	s := e.pool.Get().(*truediff.Scratch)
	defer e.pool.Put(s)

	alloc := p.Alloc
	if alloc == nil && p.Source != nil && p.Target != nil {
		// Carve a load-URI block out of the engine's space, past every URI
		// of both trees. A diff loads at most TargetSize fresh nodes, so the
		// block is always large enough, and blocks never overlap, so a
		// patched tree's URIs stay unique engine-wide.
		alloc = uri.NewAllocator()
		alloc.Reserve(e.reserveBlock(max(p.Source.MaxURI(), p.Target.MaxURI()), p.Target.Size()))
	}

	var ecol *truediff.ExplainCollector
	if e.cfg.Explain {
		// The collector is touched only by this worker goroutine: the
		// differ delivers into it synchronously at the end of the diff.
		ecol = &truediff.ExplainCollector{}
		ctx = truediff.ContextWithExplain(ctx, ecol)
	}

	start := time.Now()
	var res *truediff.Result
	var err error
	if e.cfg.Diff.ProfileLabels && p.Label != "" {
		// Nest the pair label inside the worker label (both on ctx), so a
		// CPU profile slices by worker, by pair, and — once the differ adds
		// its own label — by phase.
		pprof.Do(ctx, pprof.Labels(PprofPairLabel, p.Label), func(lctx context.Context) {
			res, err = e.runDiff(lctx, p, alloc, s)
		})
	} else {
		res, err = e.runDiff(ctx, p, alloc, s)
	}
	if err == nil {
		err = e.wellTypedOut(res)
	}
	fellBack := false
	if err != nil {
		e.classify(err)
		if e.shouldFallback(err) {
			res, err = e.fallback(p, alloc, err)
			fellBack = err == nil
		}
	}
	wall := time.Since(start)
	if err != nil {
		e.m.errors.Add(1)
		return e.finish(p, PairResult{Err: err})
	}

	st := DiffStats{
		Wall:           wall,
		Fallback:       fellBack,
		Edits:          res.Script.EditCount(),
		SourceSize:     p.Source.Size(),
		TargetSize:     p.Target.Size(),
		Phases:         s.PhaseTimes(),
		SourceInterned: e.internedTree(p.Source),
		TargetInterned: e.internedTree(p.Target),
	}
	q := quality.FromScript(res.Script, st.SourceSize, st.TargetSize)
	st.ReuseRatio = q.ReuseRatio
	st.ChangedNodes = q.ChangedNodes
	st.EditsPerChangedNode = q.EditsPerChangedNode
	st.ScriptTreeRatio = q.ScriptTreeRatio
	if bm := e.cfg.QualityBaseline; bm > 0 && !fellBack {
		if min, ok := quality.MinimalEdits(p.Source, p.Target, bm); ok {
			st.MinimalEdits = min
			st.OptimalityGap = quality.Gap(st.Edits, min)
			st.Baselined = true
		}
	}
	e.m.diffs.Add(1)
	e.m.edits.Add(uint64(st.Edits))
	e.m.sourceNodes.Add(uint64(st.SourceSize))
	e.m.targetNodes.Add(uint64(st.TargetSize))
	e.m.wallNanos.Add(uint64(wall.Nanoseconds()))
	e.h.latency.Record(wall.Nanoseconds())
	for ph, d := range st.Phases {
		e.h.phases[ph].Record(d.Nanoseconds())
	}
	e.h.edits.Record(int64(st.Edits))
	e.h.nodes.Record(int64(st.SourceSize))
	e.h.nodes.Record(int64(st.TargetSize))
	e.recordQuality(st)
	pr := PairResult{Result: res, Stats: st}
	if ecol != nil && !fellBack {
		pr.Explain = ecol.Last
	}
	return e.finish(p, pr)
}

// recordQuality feeds one diff's conciseness metrics into the quality
// histograms (permille-scaled) and cumulative counters.
func (e *Engine) recordQuality(st DiffStats) {
	e.h.reuse.Record(int64(st.ReuseRatio * 1000))
	e.h.editsChanged.Record(int64(st.EditsPerChangedNode * 1000))
	e.h.scriptTree.Record(int64(st.ScriptTreeRatio * 1000))
	e.m.changedNodes.Add(uint64(st.ChangedNodes))
	if st.Baselined {
		e.m.baselinedDiffs.Add(1)
		e.m.baselineEdits.Add(uint64(st.Edits))
		e.m.baselineMinimal.Add(uint64(st.MinimalEdits))
	}
}

// internedTree reports whether n is the canonical copy held by the
// engine's whole-tree intern store (an RLocked map lookup; the store is
// empty, and the lookup free, when only caller-owned ingest is used).
func (e *Engine) internedTree(n *tree.Node) bool {
	if n == nil {
		return false
	}
	return e.store.get(n.ExactHash()) == n
}

// finish runs the per-diff observability tail — slow-diff reporting,
// structured logging of noteworthy outcomes, and the observer callback —
// and passes the result through.
func (e *Engine) finish(p Pair, pr PairResult) PairResult {
	slow := e.cfg.SlowDiffThreshold > 0 && pr.Err == nil && pr.Stats.Wall >= e.cfg.SlowDiffThreshold
	if slow {
		e.m.slowDiffs.Add(1)
	}
	logWorthy := e.cfg.Logger != nil && (pr.Err != nil || pr.Stats.Fallback)
	if !slow && !logWorthy && e.cfg.Observer == nil {
		return pr
	}
	ev := DiffEvent{Label: p.Label, Trace: p.Trace, Stats: pr.Stats, Err: pr.Err}
	if slow {
		switch {
		case e.cfg.SlowDiffLog != nil:
			e.cfg.SlowDiffLog(ev)
		case e.cfg.Logger != nil:
			e.logEvent(slog.LevelWarn, "slow diff", ev,
				slog.Duration("threshold", e.cfg.SlowDiffThreshold))
		default:
			log.Printf("structdiff: slow diff %s: wall %v (threshold %v), %d+%d nodes, %d edits, phases %v",
				labelOr(ev.Label, "<unlabelled>"), ev.Stats.Wall, e.cfg.SlowDiffThreshold,
				ev.Stats.SourceSize, ev.Stats.TargetSize, ev.Stats.Edits, ev.Stats.Phases)
		}
	}
	if e.cfg.Logger != nil {
		if ev.Err != nil {
			e.logEvent(slog.LevelError, "diff failed", ev)
		} else if ev.Stats.Fallback {
			e.logEvent(slog.LevelWarn, "diff served by fallback", ev)
		}
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer(ev)
	}
	return pr
}

// logEvent emits one structured record for ev, carrying the pair label,
// trace correlation IDs, and the diff's headline numbers.
func (e *Engine) logEvent(level slog.Level, msg string, ev DiffEvent, extra ...slog.Attr) {
	attrs := make([]slog.Attr, 0, 8+len(extra))
	if ev.Label != "" {
		attrs = append(attrs, slog.String("pair", ev.Label))
	}
	attrs = append(attrs, ev.Trace.SlogAttrs()...)
	attrs = append(attrs,
		slog.Duration("wall", ev.Stats.Wall),
		slog.Int("source_nodes", ev.Stats.SourceSize),
		slog.Int("target_nodes", ev.Stats.TargetSize),
		slog.Int("edits", ev.Stats.Edits),
	)
	if ev.Err != nil {
		attrs = append(attrs, slog.String("err", ev.Err.Error()))
	}
	attrs = append(attrs, extra...)
	e.cfg.Logger.LogAttrs(context.Background(), level, msg, attrs...)
}

func labelOr(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}
