package perfobs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/diffserve"
	"repro/internal/engine"
	"repro/internal/gumtree"
	"repro/internal/hdiff"
	"repro/internal/lineardiff"
	"repro/internal/quality"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truediff"
)

// RunConfig parameterizes a benchmark run.
type RunConfig struct {
	// Scenarios is the matrix to execute (FullMatrix or SmokeMatrix,
	// possibly filtered). Empty selects FullMatrix.
	Scenarios []Scenario
	// Warmup repetitions run before measurement starts (default 1); Reps
	// repetitions are measured (default 5).
	Warmup int
	Reps   int
	// Smoke stamps the report as a reduced-matrix run.
	Smoke bool
	// ProfileLabels enables pprof/trace instrumentation inside the
	// measured diffs (truediff and engine systems), so a -cpuprofile or
	// -exectrace taken around the run decomposes by phase. Off by
	// default: labels cost a little and the trajectory should measure the
	// production path.
	ProfileLabels bool
	// Equiv overrides the subtree equivalence mode of the truediff and
	// engine scenarios (zero is the paper's
	// StructuralWithLiteralPreference). For ablation runs — and for
	// seeding deliberate conciseness regressions when testing the
	// comparator's quality gate.
	Equiv truediff.EquivMode
	// Logf, when non-nil, receives one progress line per scenario.
	Logf func(format string, args ...any)
}

// Run executes the configured scenarios and assembles the report.
func Run(cfg RunConfig) (*Report, error) {
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = FullMatrix()
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 1
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 5
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		CreatedUnix:   time.Now().Unix(),
		Env:           CaptureEnv(),
		Smoke:         cfg.Smoke,
	}
	corpora := make(map[corpus.Options]*corpus.History)
	for _, sc := range cfg.Scenarios {
		opts := sc.CorpusOptions()
		h, ok := corpora[opts]
		if !ok {
			h = corpus.Generate(opts)
			corpora[opts] = h
		}
		res, err := runScenario(sc, h, cfg)
		if err != nil {
			return nil, fmt.Errorf("perfobs: scenario %s: %w", sc.Name(), err)
		}
		rep.Scenarios = append(rep.Scenarios, *res)
		if cfg.Logf != nil {
			cfg.Logf("%-34s median %v over %d pairs", res.Name,
				time.Duration(res.WallNS.Median).Round(time.Microsecond), res.Pairs)
		}
	}
	return rep, nil
}

// pairSet is one scenario's pre-built workload: cloned tree pairs (corpus
// histories share subtrees between a commit's before and after, and the
// differ requires structurally distinct inputs), so the timed region
// measures diffing only — digest computation happens at clone time,
// matching the paper's amortization of step 1.
type pairSet struct {
	changes []corpus.FileChange
	src     []*tree.Node
	dst     []*tree.Node
	nodes   int64
}

func buildPairs(h *corpus.History) *pairSet {
	ps := &pairSet{changes: h.Changes()}
	alloc := h.Factory.Alloc()
	for _, fc := range ps.changes {
		s := tree.Clone(fc.Before, alloc, tree.SHA256)
		d := tree.Clone(fc.After, alloc, tree.SHA256)
		ps.src = append(ps.src, s)
		ps.dst = append(ps.dst, d)
		ps.nodes += int64(s.Size() + d.Size())
	}
	return ps
}

// measurer runs one repetition of a scenario's full pair set and reports
// the summed compound edit count. Implementations may keep warm state
// (scratch, memo) between calls — warmup repetitions bring it to steady
// state first.
type measurer interface {
	rep() (edits int, err error)
	// phases returns the per-phase wall-time sums of the most recent
	// repetition, or false when the system has no phase decomposition.
	phases() (telemetry.PhaseTimes, bool)
}

// requestSampler is implemented by measurers that observe individual
// request latencies (the service system); the runner summarizes them into
// ScenarioResult.RequestNS.
type requestSampler interface {
	// requestNS returns the per-request wall times (nanoseconds) of the
	// most recent repetition.
	requestNS() []float64
}

// closer is implemented by measurers holding external resources (sockets,
// daemons); the runner closes them when the scenario finishes.
type closer interface {
	close()
}

func runScenario(sc Scenario, h *corpus.History, cfg RunConfig) (*ScenarioResult, error) {
	ps := buildPairs(h)
	var m measurer
	var eng *engine.Engine
	switch sc.System {
	case SystemTruediff:
		m = newTruediffMeasurer(h, ps, cfg)
	case SystemEngine:
		em := newEngineMeasurer(h, ps, sc, cfg)
		m, eng = em, em.eng
	case SystemGumtree:
		m = newGumtreeMeasurer(ps)
	case SystemHdiff:
		m = &hdiffMeasurer{ps: ps}
	case SystemLineardiff:
		m = &lineardiffMeasurer{ps: ps}
	case SystemService:
		sm, err := newServiceMeasurer(h, ps, sc)
		if err != nil {
			return nil, err
		}
		m = sm
	default:
		return nil, fmt.Errorf("unknown system %q", sc.System)
	}
	if c, ok := m.(closer); ok {
		defer c.close()
	}

	res := &ScenarioResult{
		Name:   sc.Name(),
		System: string(sc.System),
		Corpus: string(sc.Corpus),
		Edits:  string(sc.Edits),
		Pairs:  len(ps.changes),
		Nodes:  ps.nodes,
		Warmup: cfg.Warmup,
		Reps:   cfg.Reps,
	}
	switch sc.System {
	case SystemEngine:
		res.Workers = sc.Workers
		res.Memo = !sc.DisableMemo
	case SystemService:
		res.Workers = sc.Workers
		res.Clients = sc.Clients
	}

	for i := 0; i < cfg.Warmup; i++ {
		if _, err := m.rep(); err != nil {
			return nil, err
		}
	}

	var before engine.Snapshot
	if eng != nil {
		before = eng.Snapshot()
	}
	rt0 := sampleRuntime()

	walls := make([]float64, 0, cfg.Reps)
	throughputs := make([]float64, 0, cfg.Reps)
	allocs := make([]float64, 0, cfg.Reps)
	var requestLats []float64
	phaseSums := make(map[string][]float64)
	for i := 0; i < cfg.Reps; i++ {
		a0 := readAllocBytes()
		start := time.Now()
		edits, err := m.rep()
		wall := time.Since(start)
		if err != nil {
			return nil, err
		}
		res.EditsTotal = edits
		walls = append(walls, float64(wall.Nanoseconds()))
		throughputs = append(throughputs, float64(ps.nodes)/wall.Seconds())
		allocs = append(allocs, float64(readAllocBytes()-a0))
		if pt, ok := m.phases(); ok {
			for p := 0; p < telemetry.NumPhases; p++ {
				name := telemetry.Phase(p).String()
				phaseSums[name] = append(phaseSums[name], float64(pt[p].Nanoseconds()))
			}
		}
		if rs, ok := m.(requestSampler); ok {
			requestLats = append(requestLats, rs.requestNS()...)
		}
	}

	rt1 := sampleRuntime()
	res.Runtime = RuntimeSample{
		AllocBytes:    rt1.allocBytes - rt0.allocBytes,
		GCCycles:      rt1.gcCycles - rt0.gcCycles,
		GCPauseNS:     rt1.gcPauseNS - rt0.gcPauseNS,
		HeapLiveBytes: rt1.heapLiveBytes,
		Goroutines:    rt1.goroutines,
	}
	res.WallNS = Summarize(walls)
	res.NodesPerSec = Summarize(throughputs)
	res.AllocBytesPerRep = Summarize(allocs)
	if len(requestLats) > 0 {
		s := Summarize(requestLats)
		res.RequestNS = &s
	}
	if len(phaseSums) > 0 {
		res.PhaseNS = make(map[string]float64, len(phaseSums))
		for name, xs := range phaseSums {
			res.PhaseNS[name] = Summarize(xs).Median
		}
	}
	if eng != nil {
		res.Utilization = eng.Snapshot().Sub(before).Utilization
	}
	if sc.System == SystemTruediff {
		pa, err := probePhaseAllocs(h, ps, cfg.Equiv)
		if err != nil {
			return nil, err
		}
		res.PhaseAllocBytes = pa
	}
	if sc.System == SystemTruediff || sc.System == SystemEngine {
		if err := probeQuality(h, ps, cfg.Equiv, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probeQuality runs one extra untimed single-threaded repetition and fills
// the report's quality columns: the per-pair median reuse ratio, the
// aggregate edits-per-changed-node ratio, and — on pairs small enough for
// the exact minimal-script baseline — the aggregate optimality gap. The
// scripts are deterministic, so the probe measures exactly what the timed
// repetitions produced without perturbing them.
func probeQuality(h *corpus.History, ps *pairSet, equiv truediff.EquivMode, res *ScenarioResult) error {
	d := truediff.NewWithOptions(h.Factory.Schema(), truediff.Options{Equiv: equiv})
	scratch := truediff.NewScratch()
	reuse := make([]float64, 0, len(ps.src))
	var edits, changed, gapEdits, gapMinimal int
	for i := range ps.src {
		r, err := d.DiffScratchChecked(ps.src[i], ps.dst[i], nil, scratch, nil)
		if err != nil {
			return fmt.Errorf("quality probe on %s: %w", ps.changes[i].Path, err)
		}
		q := quality.Measure(ps.src[i], ps.dst[i], r.Script, quality.DefaultBaselineMaxNodes)
		reuse = append(reuse, q.ReuseRatio)
		edits += q.CompoundEdits
		changed += q.ChangedNodes
		if q.Baselined {
			res.BaselinedPairs++
			gapEdits += q.CompoundEdits
			gapMinimal += q.MinimalEdits
		}
	}
	res.ReuseRatioMedian = Summarize(reuse).Median
	if changed > 0 {
		res.EditsPerChangedNode = float64(edits) / float64(changed)
	}
	if gapMinimal > 0 {
		res.OptimalityGap = float64(gapEdits)/float64(gapMinimal) - 1
	}
	return nil
}

// --- per-system measurers ---

type truediffMeasurer struct {
	d       *truediff.Differ
	ps      *pairSet
	scratch *truediff.Scratch
	pt      telemetry.PhaseTimes
}

func newTruediffMeasurer(h *corpus.History, ps *pairSet, cfg RunConfig) *truediffMeasurer {
	return &truediffMeasurer{
		d: truediff.NewWithOptions(h.Factory.Schema(),
			truediff.Options{ProfileLabels: cfg.ProfileLabels, Equiv: cfg.Equiv}),
		ps:      ps,
		scratch: truediff.NewScratch(),
	}
}

func (m *truediffMeasurer) rep() (int, error) {
	edits := 0
	m.pt = telemetry.PhaseTimes{}
	for i := range m.ps.src {
		res, err := m.d.DiffScratchChecked(m.ps.src[i], m.ps.dst[i], nil, m.scratch, nil)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", m.ps.changes[i].Path, err)
		}
		edits += res.Script.EditCount()
		pt := m.scratch.PhaseTimes()
		for p := range pt {
			m.pt[p] += pt[p]
		}
	}
	return edits, nil
}

func (m *truediffMeasurer) phases() (telemetry.PhaseTimes, bool) { return m.pt, true }

type engineMeasurer struct {
	eng     *engine.Engine
	pairs   []engine.Pair
	workers int
	pt      telemetry.PhaseTimes
}

func newEngineMeasurer(h *corpus.History, ps *pairSet, sc Scenario, cfg RunConfig) *engineMeasurer {
	eng := engine.New(h.Factory.Schema(), engine.Config{
		Workers:     sc.Workers,
		DisableMemo: sc.DisableMemo,
		Diff:        truediff.Options{ProfileLabels: cfg.ProfileLabels, Equiv: cfg.Equiv},
	})
	pairs := make([]engine.Pair, len(ps.src))
	for i := range ps.src {
		pairs[i] = engine.Pair{Source: ps.src[i], Target: ps.dst[i], Label: ps.changes[i].Path}
	}
	return &engineMeasurer{eng: eng, pairs: pairs, workers: max(sc.Workers, 1)}
}

func (m *engineMeasurer) rep() (int, error) {
	results, err := m.eng.DiffBatch(context.Background(), m.pairs)
	if err != nil {
		return 0, err
	}
	edits := 0
	m.pt = telemetry.PhaseTimes{}
	for i := range results {
		if results[i].Err != nil {
			return 0, fmt.Errorf("%s: %w", m.pairs[i].Label, results[i].Err)
		}
		edits += results[i].Stats.Edits
		for p, d := range results[i].Stats.Phases {
			m.pt[p] += d
		}
	}
	return edits, nil
}

// phases reports the per-worker mean: the pairs' phase times summed over
// all workers, divided by the worker count. Workers diff concurrently, so
// the plain sum can exceed the repetition's wall time; the mean cannot,
// because no worker is busy for longer than the wall.
func (m *engineMeasurer) phases() (telemetry.PhaseTimes, bool) {
	var pt telemetry.PhaseTimes
	for p, d := range m.pt {
		pt[p] = d / time.Duration(m.workers)
	}
	return pt, true
}

type gumtreeMeasurer struct {
	src, dst []*gumtree.Node
}

func newGumtreeMeasurer(ps *pairSet) *gumtreeMeasurer {
	m := &gumtreeMeasurer{}
	for i := range ps.src {
		m.src = append(m.src, gumtree.FromTree(ps.src[i]))
		m.dst = append(m.dst, gumtree.FromTree(ps.dst[i]))
	}
	return m
}

func (m *gumtreeMeasurer) rep() (int, error) {
	edits := 0
	for i := range m.src {
		script, _ := gumtree.Diff(m.src[i], m.dst[i], gumtree.DefaultOptions())
		edits += script.Len()
	}
	return edits, nil
}

func (m *gumtreeMeasurer) phases() (telemetry.PhaseTimes, bool) { return telemetry.PhaseTimes{}, false }

type hdiffMeasurer struct{ ps *pairSet }

func (m *hdiffMeasurer) rep() (int, error) {
	size := 0
	for i := range m.ps.src {
		patch := hdiff.Diff(m.ps.src[i], m.ps.dst[i], hdiff.DefaultOptions())
		size += patch.Size()
	}
	return size, nil
}

func (m *hdiffMeasurer) phases() (telemetry.PhaseTimes, bool) { return telemetry.PhaseTimes{}, false }

type lineardiffMeasurer struct{ ps *pairSet }

func (m *lineardiffMeasurer) rep() (int, error) {
	edits := 0
	for i := range m.ps.src {
		script, err := lineardiff.Diff(m.ps.src[i], m.ps.dst[i])
		if err != nil {
			return 0, fmt.Errorf("%s: %w", m.ps.changes[i].Path, err)
		}
		edits += script.ChangeCount()
	}
	return edits, nil
}

func (m *lineardiffMeasurer) phases() (telemetry.PhaseTimes, bool) {
	return telemetry.PhaseTimes{}, false
}

// serviceMeasurer measures the full diff-as-a-service path: an in-process
// diffserve server listening on a loopback socket, driven by Clients
// concurrent HTTP clients that share the pair set work-stealing style.
// What it times is what a network caller sees — JSON encoding, transport,
// admission control, request coalescing, and the engine behind them.
// Warmup repetitions also warm the clients' ref caches, so the measured
// steady state sends content digests instead of full trees, matching a
// long-lived client.
type serviceMeasurer struct {
	ps      *pairSet
	clients []*diffserve.Client
	srv     *diffserve.Server
	hs      *http.Server
	ln      net.Listener

	mu   sync.Mutex
	lats []float64 // per-request wall times of the most recent rep
}

func newServiceMeasurer(h *corpus.History, ps *pairSet, sc Scenario) (*serviceMeasurer, error) {
	if sc.Workers <= 0 || sc.Clients <= 0 {
		return nil, fmt.Errorf("service scenario needs pinned Workers and Clients, got %d/%d", sc.Workers, sc.Clients)
	}
	srv, err := diffserve.NewServer(diffserve.Config{
		Langs:   []string{"pylang"},
		Workers: sc.Workers,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	m := &serviceMeasurer{ps: ps, srv: srv, hs: hs, ln: ln}
	base := "http://" + ln.Addr().String()
	for c := 0; c < sc.Clients; c++ {
		m.clients = append(m.clients, diffserve.NewClient(base, "pylang", h.Factory.Schema(),
			diffserve.WithTenant(fmt.Sprintf("perfobs-%d", c))))
	}
	return m, nil
}

func (m *serviceMeasurer) rep() (int, error) {
	m.lats = m.lats[:0]
	var (
		next   atomic.Int64
		edits  atomic.Int64
		wg     sync.WaitGroup
		errMu  sync.Mutex
		repErr error
	)
	for _, cl := range m.clients {
		wg.Add(1)
		go func(cl *diffserve.Client) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(m.ps.src)) {
					return
				}
				t0 := time.Now()
				res, err := cl.Diff(context.Background(), m.ps.src[i], m.ps.dst[i], nil)
				wall := time.Since(t0)
				if err != nil {
					errMu.Lock()
					if repErr == nil {
						repErr = fmt.Errorf("%s: %w", m.ps.changes[i].Path, err)
					}
					errMu.Unlock()
					return
				}
				edits.Add(int64(res.Script.EditCount()))
				m.mu.Lock()
				m.lats = append(m.lats, float64(wall.Nanoseconds()))
				m.mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	if repErr != nil {
		return 0, repErr
	}
	return int(edits.Load()), nil
}

func (m *serviceMeasurer) phases() (telemetry.PhaseTimes, bool) { return telemetry.PhaseTimes{}, false }

func (m *serviceMeasurer) requestNS() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, len(m.lats))
	copy(out, m.lats)
	return out
}

func (m *serviceMeasurer) close() {
	for _, cl := range m.clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = m.srv.Drain(ctx)
	_ = m.hs.Shutdown(ctx)
	_ = m.ln.Close()
}

// probePhaseAllocs runs one extra single-threaded repetition with an
// OnPhase hook that reads the cumulative heap-allocation counter at every
// phase boundary. The hook runs synchronously on the diffing goroutine, so
// consecutive counter deltas attribute allocation to the phase that just
// completed. The probe repetition is never timed.
func probePhaseAllocs(h *corpus.History, ps *pairSet, equiv truediff.EquivMode) (map[string]int64, error) {
	sums := make(map[string]int64, telemetry.NumPhases)
	var last uint64
	onPhase := func(p telemetry.Phase) {
		now := readAllocBytes()
		sums[p.String()] += int64(now - last)
		last = now
	}
	d := truediff.NewWithOptions(h.Factory.Schema(), truediff.Options{OnPhase: onPhase, Equiv: equiv})
	scratch := truediff.NewScratch()
	for i := range ps.src {
		last = readAllocBytes()
		if _, err := d.DiffScratchChecked(ps.src[i], ps.dst[i], nil, scratch, nil); err != nil {
			return nil, fmt.Errorf("alloc probe on %s: %w", ps.changes[i].Path, err)
		}
	}
	return sums, nil
}

// --- runtime/metrics sampling ---

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
}

type runtimeCounters struct {
	allocBytes    uint64
	gcCycles      uint64
	heapLiveBytes uint64
	goroutines    uint64
	gcPauseNS     uint64
}

// sampleRuntime reads the runtime/metrics samples the report carries, plus
// the cumulative GC pause total (which runtime/metrics only exposes as a
// histogram; MemStats carries the exact cumulative sum).
func sampleRuntime() runtimeCounters {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var c runtimeCounters
	for i := range samples {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			continue
		}
		v := samples[i].Value.Uint64()
		switch samples[i].Name {
		case "/gc/heap/allocs:bytes":
			c.allocBytes = v
		case "/gc/cycles/total:gc-cycles":
			c.gcCycles = v
		case "/memory/classes/heap/objects:bytes":
			c.heapLiveBytes = v
		case "/sched/goroutines:goroutines":
			c.goroutines = v
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseNS = ms.PauseTotalNs
	return c
}

// allocSample is reused by readAllocBytes to keep the read itself
// allocation-free (the probe subtracts consecutive readings).
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
