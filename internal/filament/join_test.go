package filament_test

import (
	"testing"

	"filaments"
	fl "filaments/internal/filament"
)

const (
	fnOne = 10 + iota
	fnSkew
	fnRoot
)

// asRoot runs body as the root filament of a one-node fork/join program,
// so the workers its forks start are wound down when it returns.
func asRoot(t *testing.T, body func(rt *fl.Runtime, e *fl.Exec)) {
	t.Helper()
	run(t, filaments.Config{Nodes: 1}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		rt.RegisterFJ(fnOne, one)
		rt.RegisterFJ(fnRoot, func(e *fl.Exec, _ fl.Args) float64 { body(rt, e); return 0 })
		rt.RunForkJoin(e, fnRoot, fl.Args{})
	})
}

func one(*fl.Exec, fl.Args) float64 { return 1 }

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// A Join is single-use: once Wait has returned, the record belongs to the
// next NewJoin, and touching it again must fail loudly rather than fork a
// task whose result nobody — or somebody else's join — hears.
func TestJoinUsedAfterWaitPanics(t *testing.T) {
	const want = "filament: Join used after Wait returned"
	asRoot(t, func(rt *fl.Runtime, e *fl.Exec) {
		j := rt.NewJoin()
		rt.Fork(e, j, fnOne, fl.Args{})
		if got := j.Wait(e); got != 1 {
			t.Errorf("Wait returned %v, want 1", got)
		}
		if got := panicOf(func() { rt.Fork(e, j, fnOne, fl.Args{}) }); got != want {
			t.Errorf("Fork after Wait: panic %v, want %q", got, want)
		}
		if got := panicOf(func() { j.Wait(e) }); got != want {
			t.Errorf("second Wait: panic %v, want %q", got, want)
		}
		if st := rt.Stats(); st.ForksKept+st.ForksPruned != 1 {
			t.Errorf("the refused Fork was counted: %+v", st)
		}
	})
}

// The fork/join allocation gate: with enough local work pending that forks
// are pruned to calls, a whole NewJoin / Fork / Fork / Wait round reuses
// the last round's Join and allocates nothing.
func TestPrunedForkJoinAllocatesNothing(t *testing.T) {
	asRoot(t, func(rt *fl.Runtime, e *fl.Exec) {
		outer := rt.NewJoin()
		rt.Fork(e, outer, fnOne, fl.Args{}) // two kept forks are the pending
		rt.Fork(e, outer, fnOne, fl.Args{}) // work that makes the next ones prune
		round := func() {
			j := rt.NewJoin()
			rt.Fork(e, j, fnOne, fl.Args{})
			rt.Fork(e, j, fnOne, fl.Args{})
			if j.Wait(e) != 2 {
				panic("wrong sum")
			}
		}
		round()
		pruned := rt.Stats().ForksPruned
		if n := testing.AllocsPerRun(1000, round); n != 0 {
			t.Errorf("a pruned fork/join round allocates %.1f times, want 0", n)
		}
		if got := rt.Stats().ForksPruned - pruned; got != 2*1001 {
			t.Errorf("%d forks pruned in 1001 rounds; the rounds were not all pruned", got)
		}
		outer.Wait(e)
	})
}

// skew is a lopsided recursion: the left child is one level shallower, the
// right child at most ten levels deep, so joins nest as deep as the
// argument while the task count stays in the tens of thousands. A leaf is worth
// its path number.
func skew(e *fl.Exec, a fl.Args) float64 {
	depth, path := a[0], a[1]
	if depth == 0 {
		return float64(path)
	}
	rt := e.Runtime()
	j := rt.NewJoin()
	rt.Fork(e, j, fnSkew, fl.Args{depth - 1, 2 * path})
	rt.Fork(e, j, fnSkew, fl.Args{min(depth-1, 10), 2*path + 1})
	return j.Wait(e)
}

func skewSequential(depth, path int64) float64 {
	if depth == 0 {
		return float64(path)
	}
	return skewSequential(depth-1, 2*path) + skewSequential(min(depth-1, 10), 2*path+1)
}

// Recycled joins under real concurrency: a recursion 24 joins deep on four
// UDP nodes with stealing, where results for a join arrive from other
// nodes while that node retires and reuses other joins, must still add up
// to the sequential sum.
func TestDeepRecursionWithStealingOverUDP(t *testing.T) {
	const depth = 24
	want := skewSequential(depth, 1)
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: 4, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var results [4]float64
	if _, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		rt.RegisterFJ(fnSkew, skew)
		results[rt.ID()] = rt.RunForkJoin(e, fnSkew, filaments.Args{depth, 1})
	}); err != nil {
		t.Fatal(err)
	}
	var stolen int64
	for i, got := range results {
		if got != want {
			t.Errorf("node %d: sum %v, sequential %v", i, got, want)
		}
		stolen += cl.Runtime(i).Stats().StealsGranted
	}
	t.Logf("%d steals granted", stolen)
}
