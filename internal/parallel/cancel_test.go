package parallel

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestPartitionCtxBackground checks that PartitionCtx with a background
// context is byte-identical to Partition: the cancellation vote must be
// skipped entirely (ctx.Done() == nil), leaving labels and the collective
// schedule untouched.
func TestPartitionCtxBackground(t *testing.T) {
	g := gen.MRNGLike(12, 12, 12, 3)
	g = gen.Type1(g, 2, 7)
	want, wantStats, err := Partition(g, 8, 4, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := PartitionCtx(context.Background(), g, 8, 4, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("label mismatch at vertex %d: %d vs %d", i, got[i], want[i])
		}
	}
	if gotStats.SimTime != wantStats.SimTime {
		t.Fatalf("simulated time changed: %v vs %v", gotStats.SimTime, wantStats.SimTime)
	}
}

// TestPartitionCtxCancelled checks that an already-cancelled context
// aborts the SPMD run with all simulated ranks torn down cleanly: the
// goroutine count returns to its pre-run level and the error wraps
// context.Canceled.
func TestPartitionCtxCancelled(t *testing.T) {
	g := gen.MRNGLike(12, 12, 12, 1)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, _, err := PartitionCtx(ctx, g, 8, 4, Options{Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if part != nil {
		t.Fatalf("got a partition from a cancelled run")
	}
	// All p rank goroutines must have drained; give the runtime a moment
	// to reap them before comparing.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("rank goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestPartitionCtxDeadlineMidRun cancels a larger run via a deadline that
// fires while the ranks are mid-pipeline, exercising the collective abort
// vote at level boundaries and refinement passes rather than the fast path
// of an already-dead context.
func TestPartitionCtxDeadlineMidRun(t *testing.T) {
	g := gen.MRNGLike(24, 24, 24, 2)
	g = gen.Type1(g, 3, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	part, _, err := PartitionCtx(ctx, g, 16, 4, Options{Seed: 1})
	if err == nil {
		// The run beat the deadline; nothing to assert (timing-dependent),
		// but the partition must then be complete.
		if len(part) != g.NumVertices() {
			t.Fatalf("completed run returned %d labels, want %d", len(part), g.NumVertices())
		}
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if part != nil {
		t.Fatalf("got a partition from a timed-out run")
	}
}

// TestPartitionCtxDeadlineInInit: on mrng2s at p=64 every rank's block is
// thinner than a mesh layer, coarsening stops after one level, and the
// run spends its time in pinit, where the ranks bisect the gathered
// graph, the whole input, on rank groups and each refines it k-way
// (ROADMAP, the high-p collapse). Without a stop hook there a 300 ms
// deadline ended the run only once pinit had finished: after about 20 s
// while each rank bisected the whole graph alone, after about 6 s since
// the ranks share the bisection. pinit polls the deadline between
// bisection trials and FM passes, at the shared nodes as in each rank's
// own subtree, and the next collective vote ends the run.
func TestPartitionCtxDeadlineInInit(t *testing.T) {
	spec, _ := gen.MeshByName("mrng2s")
	g := gen.Type1(spec.Build(1*7919+7), 1, 101)
	const deadline, bound = 300 * time.Millisecond, 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	part, _, err := PartitionCtx(ctx, g, 64, 64, Options{Seed: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if part != nil {
		t.Fatal("got a partition from a timed-out run")
	}
	t.Logf("a %v deadline returned after %v", deadline, elapsed)
	if elapsed > deadline+bound {
		t.Fatalf("the run returned %v after its deadline, past the bound of %v", elapsed-deadline, bound)
	}
}

// TestPartitionCtxUnfiredDeadline: a deadline that never fires arms the
// ranks' checks in pinit, which must not change a label.
func TestPartitionCtxUnfiredDeadline(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(12, 12, 12, 3), 2, 7)
	want, _, err := Partition(g, 8, 4, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, _, err := PartitionCtx(ctx, g, 8, 4, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("label mismatch at vertex %d: %d vs %d", i, got[i], want[i])
		}
	}
}
