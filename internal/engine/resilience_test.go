package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/derrors"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/mtree"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// TestPanicIsolation injects a panic into one pair of a batch and checks
// that (a) only that pair fails, with a *PanicError matching
// derrors.ErrDiffPanic and carrying the stack, (b) every other pair
// succeeds, and (c) the panic counter moves.
func TestPanicIsolation(t *testing.T) {
	tps := makePairs(t, 8)
	inj := faultinject.New(1, faultinject.Fault{
		Site: FaultSiteDiff, Kind: faultinject.Panic, After: 3, Times: 1,
	})
	e := New(exp.Schema(), Config{Workers: 1, Faults: inj})

	results, err := e.DiffBatch(context.Background(), enginePairs(tps))
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	failed := 0
	for i, pr := range results {
		if pr.Err == nil {
			if pr.Result == nil {
				t.Fatalf("pair %d has neither Result nor Err", i)
			}
			continue
		}
		failed++
		if !errors.Is(pr.Err, derrors.ErrDiffPanic) {
			t.Errorf("pair %d error %v does not match ErrDiffPanic", i, pr.Err)
		}
		var pe *PanicError
		if !errors.As(pr.Err, &pe) {
			t.Errorf("pair %d error %T is not a *PanicError", i, pr.Err)
		} else {
			if len(pe.Stack) == 0 {
				t.Error("PanicError carries no stack")
			}
			if !bytes.Contains(pe.Stack, []byte("goroutine")) {
				t.Error("PanicError stack does not look like a goroutine dump")
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d pairs failed, want exactly 1", failed)
	}
	s := e.Snapshot()
	if s.Panics != 1 {
		t.Errorf("Snapshot.Panics = %d, want 1", s.Panics)
	}
	if s.Errors != 1 {
		t.Errorf("Snapshot.Errors = %d, want 1", s.Errors)
	}
}

// TestDiffTimeout aborts a diff via an injected checkpoint delay that
// overruns the per-diff deadline, and checks the error and counter.
func TestDiffTimeout(t *testing.T) {
	tps := makePairs(t, 1)
	inj := faultinject.New(1, faultinject.Fault{
		Site: FaultSiteCheckpoint, Kind: faultinject.Delay, Delay: 20 * time.Millisecond, Times: 1,
	})
	e := New(exp.Schema(), Config{
		Workers:         1,
		DiffTimeout:     time.Millisecond,
		CheckpointEvery: 1,
		Faults:          inj,
	})
	_, err := e.Diff(context.Background(), tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc)
	if !errors.Is(err, derrors.ErrDiffTimeout) {
		t.Fatalf("Diff under deadline overrun = %v, want ErrDiffTimeout", err)
	}
	if s := e.Snapshot(); s.Timeouts != 1 {
		t.Errorf("Snapshot.Timeouts = %d, want 1", s.Timeouts)
	}
}

// TestFallbackRootReplace exercises graceful degradation on both rescue
// paths — a panic and a timeout — and checks the synthesized script
// patches source into target, the pair reports Fallback, and the failure
// counters still record the underlying failure.
func TestFallbackRootReplace(t *testing.T) {
	tps := makePairs(t, 4)
	inj := faultinject.New(1,
		faultinject.Fault{Site: FaultSiteDiff, Kind: faultinject.Panic, After: 1, Times: 1},
		faultinject.Fault{Site: FaultSiteCheckpoint, Kind: faultinject.Delay, Delay: 20 * time.Millisecond, After: 2, Times: 1},
	)
	e := New(exp.Schema(), Config{
		Workers:         1,
		Fallback:        FallbackRootReplace,
		DiffTimeout:     5 * time.Millisecond,
		CheckpointEvery: 1,
		Faults:          inj,
	})
	results, err := e.DiffBatch(context.Background(), enginePairs(tps))
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	fallbacks := 0
	for i, pr := range results {
		if pr.Err != nil {
			t.Fatalf("pair %d failed despite fallback: %v", i, pr.Err)
		}
		if !pr.Stats.Fallback {
			continue
		}
		fallbacks++
		if err := truechange.WellTyped(e.Schema(), pr.Result.Script); err != nil {
			t.Errorf("pair %d fallback script ill-typed: %v", i, err)
		}
		mt, err := mtree.FromTree(e.Schema(), tps[i].pair.Source)
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.Patch(pr.Result.Script); err != nil {
			t.Errorf("pair %d fallback script does not patch: %v", i, err)
		} else if !mt.EqualTree(tps[i].pair.Target) {
			t.Errorf("pair %d fallback patch differs from target", i)
		}
		if pr.Stats.ReuseRatio != 0 {
			t.Errorf("pair %d fallback ReuseRatio = %v, want 0 (nothing reused)", i, pr.Stats.ReuseRatio)
		}
	}
	if fallbacks != 2 {
		t.Fatalf("%d pairs fell back, want 2 (one panic, one timeout)", fallbacks)
	}
	s := e.Snapshot()
	if s.Panics != 1 || s.Timeouts != 1 || s.Fallbacks != 2 {
		t.Errorf("Snapshot panics/timeouts/fallbacks = %d/%d/%d, want 1/1/2", s.Panics, s.Timeouts, s.Fallbacks)
	}
	if s.Errors != 0 {
		t.Errorf("Snapshot.Errors = %d, want 0 (all pairs rescued)", s.Errors)
	}
}

// TestFallbackDoesNotRescueCancellation: cancelling the batch context must
// abort pairs even under FallbackRootReplace — the caller asked the work
// to stop.
func TestFallbackDoesNotRescueCancellation(t *testing.T) {
	tps := makePairs(t, 1)
	e := New(exp.Schema(), Config{
		Workers: 1, Fallback: FallbackRootReplace, CheckpointEvery: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Diff(ctx, tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Diff on cancelled ctx = %v, want context.Canceled", err)
	}
	if s := e.Snapshot(); s.Fallbacks != 0 {
		t.Errorf("cancellation was rescued: Fallbacks = %d", s.Fallbacks)
	}
}

// TestInjectedErrorFailsPairWithoutFallback: a plain injected error is an
// ordinary failure — not eligible for degradation even in fallback mode.
func TestInjectedErrorFailsPairWithoutFallback(t *testing.T) {
	tps := makePairs(t, 1)
	inj := faultinject.New(1, faultinject.Fault{Site: FaultSiteDiff, Kind: faultinject.Error, Times: 1})
	e := New(exp.Schema(), Config{Workers: 1, Fallback: FallbackRootReplace, Faults: inj})
	_, err := e.Diff(nil, tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Diff = %v, want ErrInjected", err)
	}
	if s := e.Snapshot(); s.Fallbacks != 0 || s.Errors != 1 {
		t.Errorf("Fallbacks/Errors = %d/%d, want 0/1", s.Fallbacks, s.Errors)
	}
}

// TestMidBatchCancellationAccounting cancels a batch mid-flight and checks
// the accounting invariant: every pair ends with exactly one of Result or
// Err, never both, never neither (no zero-value PairResult slips through).
func TestMidBatchCancellationAccounting(t *testing.T) {
	tps := makePairs(t, 64)
	e := New(exp.Schema(), Config{Workers: 2, CheckpointEvery: 16})
	ctx, cancel := context.WithCancel(context.Background())

	var once sync.Once
	e.cfg.Observer = func(DiffEvent) {
		once.Do(cancel) // cancel as soon as the first diff completes
	}
	results, err := e.DiffBatch(ctx, enginePairs(tps))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DiffBatch = %v, want context.Canceled", err)
	}
	if len(results) != len(tps) {
		t.Fatalf("got %d results for %d pairs", len(results), len(tps))
	}
	completed, failed := 0, 0
	for i, pr := range results {
		switch {
		case pr.Result != nil && pr.Err != nil:
			t.Errorf("pair %d has both Result and Err", i)
		case pr.Result == nil && pr.Err == nil:
			t.Errorf("pair %d has neither Result nor Err (zero-value PairResult)", i)
		case pr.Err != nil:
			failed++
			if !errors.Is(pr.Err, context.Canceled) {
				t.Errorf("pair %d error %v does not match context.Canceled", i, pr.Err)
			}
		default:
			completed++
		}
	}
	if completed == 0 {
		t.Error("no pair completed before cancellation")
	}
	if failed == 0 {
		t.Error("no pair was cancelled")
	}
}

// TestNilContextNormalized: both entry points accept a nil ctx (treated as
// context.Background()).
func TestNilContextNormalized(t *testing.T) {
	tps := makePairs(t, 2)
	e := New(exp.Schema(), Config{Workers: 2})
	if _, err := e.Diff(nil, tps[0].pair.Source, tps[0].pair.Target, tps[0].pair.Alloc); err != nil {
		t.Fatalf("Diff(nil ctx): %v", err)
	}
	results, err := e.DiffBatch(nil, enginePairs(tps[1:]))
	if err != nil {
		t.Fatalf("DiffBatch(nil ctx): %v", err)
	}
	if results[0].Err != nil {
		t.Fatalf("pair failed under nil ctx: %v", results[0].Err)
	}
}

// TestResilientBatchMatchesSequential: with checkpoints armed but nothing
// firing, a batch still produces exactly the scripts a plain differ does —
// the resilience layer is observationally transparent on the happy path.
func TestResilientBatchMatchesSequential(t *testing.T) {
	tps := makePairs(t, 12)
	e := New(exp.Schema(), Config{
		Workers:         4,
		DiffTimeout:     time.Minute,
		CheckpointEvery: 8,
		Fallback:        FallbackRootReplace,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results, err := e.DiffBatch(ctx, enginePairs(tps))
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	d := truediff.New(exp.Schema())
	for i, pr := range results {
		if pr.Err != nil {
			t.Fatalf("pair %d: %v", i, pr.Err)
		}
		if pr.Stats.Fallback {
			t.Errorf("pair %d fell back on the happy path", i)
		}
		want, err := d.Diff(tps[i].refSrc, tps[i].refDst, tps[i].refAlloc)
		if err != nil {
			t.Fatalf("pair %d sequential: %v", i, err)
		}
		if pr.Result.Script.String() != want.Script.String() {
			t.Errorf("pair %d script differs from sequential reference", i)
		}
	}
}

// TestHeightCapAtEngineEntry checks that a pair nesting deeper than
// tree.MaxSExprDepth fails alone with ErrTreeTooDeep — on either side,
// with or without graceful degradation, since the root-replacement script
// would recurse just as deep — while a healthy pair in the same batch
// completes.
func TestHeightCapAtEngineEntry(t *testing.T) {
	sch := exp.Schema()
	alloc := uri.NewAllocator()
	leaf, err := tree.New(sch, alloc, exp.Num, nil, []any{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	deep := leaf
	for deep.Height()+1 <= tree.MaxSExprDepth {
		if deep, err = tree.New(sch, alloc, exp.Call, []*tree.Node{deep}, []any{"f"}); err != nil {
			t.Fatal(err)
		}
	}
	tps := makePairs(t, 1)
	for _, fb := range []FallbackMode{FallbackNone, FallbackRootReplace} {
		e := New(sch, Config{Workers: 2, Fallback: fb})
		results, err := e.DiffBatch(context.Background(), []Pair{
			{Source: deep, Target: leaf},
			{Source: leaf, Target: deep},
			tps[0].pair,
		})
		if err != nil {
			t.Fatalf("DiffBatch: %v", err)
		}
		for i := 0; i < 2; i++ {
			if !errors.Is(results[i].Err, derrors.ErrTreeTooDeep) {
				t.Errorf("fallback %v, pair %d: err = %v, want ErrTreeTooDeep", fb, i, results[i].Err)
			}
		}
		if results[2].Err != nil {
			t.Errorf("fallback %v: healthy pair failed: %v", fb, results[2].Err)
		}
		e.Close()
	}
}
