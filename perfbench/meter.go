package main

import (
	"crypto/sha256"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is what one timed operation reports to the meter.
type op struct {
	wall    time.Duration
	nodes   int // source plus target nodes
	edits   int // compound edits of the produced scripts
	changes int // file changes the op covered
	failed  bool
	traced  bool
}

// meter accumulates one run's measurements. Workloads report ops, timed
// regions, set-ups and oracle verdicts to it; it is safe for concurrent use.
type meter struct {
	trace bool
	rec   *recorder // nil unless trace
	seq   atomic.Int64

	mu         sync.Mutex
	timed      time.Duration // timed wall: ops only, never set-up or checks
	allocs     uint64        // heap bytes allocated inside the timed wall
	latMS      []float64     // walls of untraced ops
	nodes      int64
	edits      int64
	changes    int64
	attempted  int64
	failed     int64
	mismatches int64 // oracle verdicts against the program
	setups     []float64
	heapMB     float64 // live heap of the first pass's state, inputs excluded
	traced     [2]rate // index 1: traced ops, 0: untraced ops of a traced run
	layer      map[string]float64
	linear     []diffSample
	heapBaseMB float64
}

type rate struct {
	nodes int64
	wall  time.Duration
	ops   int64
}

// diffSample is one diff's size and wall time, for the linearity check.
type diffSample struct {
	nodes int
	wall  time.Duration
}

func newMeter(trace bool) *meter {
	m := &meter{trace: trace, layer: make(map[string]float64)}
	if trace {
		m.rec = newRecorder()
	}
	return m
}

// traceNext decides whether the next op is traced. A traced run traces
// every other op, so traced and untraced ops of one run see the same inputs
// and the same host, and their rates give the tracing overhead.
func (m *meter) traceNext() bool {
	return m.trace && m.seq.Add(1)%2 == 0
}

func (m *meter) record(o op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if o.failed {
		m.failed++
		return
	}
	m.nodes += int64(o.nodes)
	m.edits += int64(o.edits)
	m.changes += int64(o.changes)
	if !o.traced {
		m.latMS = append(m.latMS, float64(o.wall)/float64(time.Millisecond))
	}
	if m.trace {
		r := &m.traced[btoi(o.traced)]
		r.nodes += int64(o.nodes)
		r.wall += o.wall
		r.ops++
	}
}

// mismatch records an oracle verdict against an op already recorded as
// attempted: it turns that op into a failure.
func (m *meter) mismatch() {
	m.mu.Lock()
	m.mismatches++
	m.failed++
	m.mu.Unlock()
}

// finalMismatch records an oracle verdict against the program's state at
// the end of a pass, which no single op owns.
func (m *meter) finalMismatch() {
	m.mu.Lock()
	m.mismatches++
	m.mu.Unlock()
}

func (m *meter) addTimed(wall time.Duration, allocs uint64) {
	m.mu.Lock()
	m.timed += wall
	m.allocs += allocs
	m.mu.Unlock()
}

func (m *meter) setup(d time.Duration) {
	m.mu.Lock()
	m.setups = append(m.setups, d.Seconds())
	m.mu.Unlock()
}

// heapPass samples, at the end of the first pass, the live heap held by the
// pass's program state. Every pass holds the same state at its end, and a
// forced collection per pass would distort the passes after it.
func (m *meter) heapPass(pass int) {
	if pass == 0 {
		m.heapMB = liveHeapMB() - m.heapBaseMB
	}
}

// addLayer adds v to a per-layer accumulator; see perLayer for how each
// accumulator becomes a metric.
func (m *meter) addLayer(name string, v float64) {
	m.mu.Lock()
	m.layer[name] += v
	m.mu.Unlock()
}

func (m *meter) addDiff(nodes int, wall time.Duration) {
	m.mu.Lock()
	m.linear = append(m.linear, diffSample{nodes, wall})
	m.mu.Unlock()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// allocBytes reads the cumulative count of heap bytes allocated.
func allocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// liveHeapMB forces a collection and reads the heap it found live.
func liveHeapMB() float64 {
	runtime.GC()
	s := [1]metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s[:])
	return float64(s[0].Value.Uint64()) / 1e6
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// linearity is Theorem 4.1's check on the run's own diffs: ns per node of
// the largest quarter of diffs over that of the smallest quarter. Linear
// time reads about 1.
func linearity(samples []diffSample) float64 {
	if len(samples) < 4 {
		return 0
	}
	s := append([]diffSample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].nodes < s[j].nodes })
	nsPerNode := func(part []diffSample) float64 {
		var nodes int
		var wall time.Duration
		for _, d := range part {
			nodes += d.nodes
			wall += d.wall
		}
		return float64(wall.Nanoseconds()) / float64(max(nodes, 1))
	}
	q := len(s) / 4
	small := nsPerNode(s[:q])
	if small == 0 {
		return 0
	}
	return nsPerNode(s[len(s)-q:]) / small
}

// hostControl times a fixed stdlib-only kernel, SHA-256 over mib MiB of a
// fixed buffer, reps times, and returns the median ns per byte. It runs no
// repository code, so it moves only when the host does.
func hostControl(reps, mib int) float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	var samples []float64
	for r := 0; r < reps; r++ {
		h := sha256.New()
		start := time.Now()
		for i := 0; i < mib; i++ {
			h.Write(buf)
		}
		h.Sum(nil)
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(mib<<20))
	}
	return median(samples)
}
