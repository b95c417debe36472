package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nord/internal/noc"
	"nord/internal/stats"
	"nord/internal/topology"
)

// TestRunSyntheticCancelBounded proves cooperative cancellation is
// bounded: after ctx is canceled, the tick loop stops within CheckEvery
// cycles (the context poll interval), not at the end of the run.
func TestRunSyntheticCancelBounded(t *testing.T) {
	const (
		warmup     = 500
		measure    = 2_000_000 // far more than the test should ever simulate
		checkEvery = 128
		progEvery  = 512
		cancelAt   = 2048 // network cycle at which the callback cancels
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceledAt uint64
	res, err := RunSyntheticOpts(ctx, SynthConfig{
		Design: noc.NoRD, Width: 4, Height: 4,
		Pattern: "uniform", Rate: 0.05,
		Warmup: warmup, Measure: measure, Seed: 1,
	}, RunOptions{
		CheckEvery:    checkEvery,
		ProgressEvery: progEvery,
		Progress: func(p stats.Progress) {
			if canceledAt == 0 && p.Cycle >= cancelAt {
				canceledAt = p.Cycle
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if canceledAt == 0 {
		t.Fatal("progress callback never fired")
	}
	if res.Err == "" {
		t.Fatal("partial result did not record the cancellation in Err")
	}
	// res.Cycles counts measured cycles; the loop may tick at most
	// checkEvery more cycles past the cancel point before the next poll.
	limit := canceledAt - warmup + checkEvery
	if res.Cycles > limit {
		t.Fatalf("loop ran %d measured cycles after cancel at %d; bound is %d",
			res.Cycles, canceledAt, limit)
	}
	if res.Cycles == 0 {
		t.Fatal("expected partial statistics from the canceled run")
	}
}

// TestRunSyntheticPreCanceled checks an already-canceled context stops
// the run almost immediately.
func TestRunSyntheticPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunSyntheticCtx(ctx, SynthConfig{
		Design: noc.NoPG, Width: 4, Height: 4,
		Pattern: "uniform", Rate: 0.05,
		Warmup: 10_000, Measure: 1_000_000, Seed: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Cycles > 0 {
		t.Fatalf("pre-canceled run measured %d cycles", res.Cycles)
	}
}

// TestRunWorkloadCancel checks the full-system runner honours ctx too.
func TestRunWorkloadCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	canceled := false
	_, err := RunWorkloadOpts(ctx, WorkloadConfig{
		Design: noc.NoRD, Benchmark: "x264", Scale: 0.5, Seed: 1,
	}, RunOptions{
		CheckEvery:    256,
		ProgressEvery: 1024,
		Progress: func(p stats.Progress) {
			if !canceled && p.Cycle >= 4096 {
				canceled = true
				cancel()
			}
		},
	})
	if !canceled {
		// Workload finished before the cancel point; nothing to assert.
		t.Skip("workload too short to cancel mid-run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestParallelLoadSweepCanceled checks the sweep propagates cancellation.
func TestParallelLoadSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ParallelLoadSweepCtx(ctx, 4, 4, "uniform", []float64{0.02, 0.05}, 20_000, 1)
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
}

// forgetPerfCentric drops a grid's memoised perf-centric set so a test can
// watch the planner run again.
func forgetPerfCentric(kind topology.Kind, w, h int) {
	perfMu.Lock()
	delete(perfCache, perfKey{kind, w, h})
	perfMu.Unlock()
}

// TestPerfCentricSingleFlight starts 8 concurrent callers on one cold grid:
// exactly one planner run may serve them all.
func TestPerfCentricSingleFlight(t *testing.T) {
	const callers = 8
	forgetPerfCentric(topology.KindMesh, 8, 6)
	before := perfPlans.Load()
	start := make(chan struct{})
	sets := make([][]int, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sets[i], errs[i] = PerfCentricSetOn(topology.KindMesh, 8, 6)
		}()
	}
	close(start)
	wg.Wait()
	if runs := perfPlans.Load() - before; runs != 1 {
		t.Errorf("%d planner runs for %d concurrent callers, want 1", runs, callers)
	}
	for i := range callers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if fmt.Sprint(sets[i]) != fmt.Sprint(sets[0]) {
			t.Errorf("caller %d got %v, caller 0 %v", i, sets[i], sets[0])
		}
	}
}

// TestPerfCentricCancelNotMemoised cancels a NoRD run during setup: the
// run fails with context.Canceled, and the next caller plans afresh
// instead of receiving the canceled result.
func TestPerfCentricCancelNotMemoised(t *testing.T) {
	forgetPerfCentric(topology.KindMesh, 6, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSyntheticCtx(ctx, SynthConfig{
		Design: noc.NoRD, Width: 6, Height: 6,
		Pattern: "uniform", Rate: 0.05, Warmup: 100, Measure: 100, Seed: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	before := perfPlans.Load()
	set, err := PerfCentricSetOn(topology.KindMesh, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3*36/8 {
		t.Errorf("set %v, want %d routers", set, 3*36/8)
	}
	if runs := perfPlans.Load() - before; runs != 1 {
		t.Errorf("%d planner runs after a canceled one, want 1", runs)
	}
}

// TestPerfCentricPanicReleasesMemo makes the memo's leader panic mid-run,
// as runGuarded lets it in a sweep: the panic must reach the leader's
// caller, the entry must leave the memo, and a waiter and a later caller
// must both get the set from a fresh run instead of blocking forever.
func TestPerfCentricPanicReleasesMemo(t *testing.T) {
	const w, h = 6, 4
	forgetPerfCentric(topology.KindMesh, w, h)
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	planPerfCentricHook = func(ctx context.Context, kind topology.Kind, w, h int) ([]int, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
			panic("planner bug")
		}
		return planPerfCentric(ctx, kind, w, h)
	}
	defer func() { planPerfCentricHook = planPerfCentric }()

	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		_, _ = PerfCentricSetOn(topology.KindMesh, w, h)
	}()
	<-entered
	type result struct {
		set []int
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		set, err := PerfCentricSetOn(topology.KindMesh, w, h)
		waiter <- result{set, err}
	}()
	close(release)
	if v := <-leader; v != "planner bug" {
		t.Fatalf("leader recovered %v, want the planner's panic", v)
	}
	check := func(name string, r result) {
		t.Helper()
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		if len(r.set) != 3*w*h/8 {
			t.Errorf("%s: set %v, want %d routers", name, r.set, 3*w*h/8)
		}
	}
	select {
	case r := <-waiter:
		check("waiter", r)
	case <-time.After(30 * time.Second):
		t.Fatal("waiter still blocked after the leader panicked")
	}
	set, err := PerfCentricSetOn(topology.KindMesh, w, h)
	check("later caller", result{set, err})
	if n := calls.Load(); n != 2 {
		t.Errorf("%d planner runs, want 2 (the panicked one and one retry)", n)
	}
}
