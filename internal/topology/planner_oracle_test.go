package topology

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// floydWarshall is the planner's original evaluator, kept as the oracle:
// all-pairs Floyd–Warshall over cycles with a strict "<" update, carrying
// the hop count of the path each update installs.
func floydWarshall(p *Planner, on []bool) (totals, error) {
	n := p.Topo.N()
	const inf = 1<<31 - 1
	cost := make([][]int32, n)
	hops := make([][]int32, n)
	for u := 0; u < n; u++ {
		cost[u] = make([]int32, n)
		hops[u] = make([]int32, n)
		for v := 0; v < n; v++ {
			if u != v {
				cost[u][v] = inf
			}
		}
	}
	edge := func(u, v int) {
		var c int32
		if on[v] {
			c = int32(p.PipeOnCycles)
		} else {
			if p.Ring.Pred(v) != u {
				return
			}
			c = int32(p.PipeBypassCycles)
		}
		if c < cost[u][v] {
			cost[u][v] = c
			hops[u][v] = 1
		}
	}
	for u := 0; u < n; u++ {
		if on[u] {
			for d := East; d < Local; d++ {
				if v, ok := p.Topo.Neighbor(u, d); ok {
					edge(u, v)
				}
			}
		} else {
			edge(u, p.Ring.Succ(u))
		}
	}
	for k := 0; k < n; k++ {
		for u := 0; u < n; u++ {
			cuk := cost[u][k]
			if cuk == inf {
				continue
			}
			for v := 0; v < n; v++ {
				if cost[k][v] == inf {
					continue
				}
				if nc := cuk + cost[k][v]; nc < cost[u][v] {
					cost[u][v] = nc
					hops[u][v] = hops[u][k] + hops[k][v]
				}
			}
		}
	}
	var t totals
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if cost[u][v] == inf {
				return totals{}, fmt.Errorf("topology: node %d unreachable from %d", v, u)
			}
			t.cycles += int64(cost[u][v])
			t.hops += int64(hops[u][v])
		}
	}
	return t, nil
}

func newPlannerOn(t testing.TB, kind Kind, w, h int) *Planner {
	t.Helper()
	topo := MustNew(kind, w, h)
	r, err := NewRing(topo)
	if err != nil {
		t.Fatal(err)
	}
	return NewPlanner(topo, r)
}

// TestEvalOracleCandidates follows full greedy runs, picking by the
// oracle, and requires the per-source evaluator to match Floyd–Warshall's
// totals on every candidate along the way.
func TestEvalOracleCandidates(t *testing.T) {
	for _, g := range []struct {
		kind Kind
		w, h int
	}{{KindMesh, 8, 8}, {KindTorus, 8, 8}, {KindMesh, 6, 7}, {KindTorus, 6, 5}} {
		p := newPlannerOn(t, g.kind, g.w, g.h)
		n := p.Topo.N()
		e := p.newEvaluator()
		on := make([]bool, n)
		evals, mismatches := 0, 0
		for step := 0; step < n; step++ {
			bestV := -1
			var bestT totals
			for v := 0; v < n; v++ {
				if on[v] {
					continue
				}
				on[v] = true
				got, err := e.eval(on)
				if err != nil {
					t.Fatal(err)
				}
				want, err := floydWarshall(p, on)
				if err != nil {
					t.Fatal(err)
				}
				on[v] = false
				evals++
				if got != want {
					if mismatches++; mismatches <= 3 {
						t.Errorf("%v %dx%d step %d +%d: got %+v, Floyd–Warshall %+v", g.kind, g.w, g.h, step, v, got, want)
					}
				}
				if bestV < 0 || want.less(bestT) {
					bestV, bestT = v, want
				}
			}
			on[bestV] = true
		}
		t.Logf("%v %dx%d: %d candidates, %d mismatches", g.kind, g.w, g.h, evals, mismatches)
	}
}

// checkFlip scores base.on plus router c both by flip and by a full eval
// and reports the first difference in totals or in any pair's dist, k* or
// hops; a pair flip left unaffected must hold the base values. e and full
// are scratch evaluators.
func checkFlip(base, e, full *evaluator, bt totals, c int) (totals, error) {
	got, err := e.flip(base, bt, c)
	if err != nil {
		return totals{}, err
	}
	on := slices.Clone(base.on)
	on[c] = true
	want, err := full.eval(on)
	if err != nil {
		return totals{}, err
	}
	if got != want {
		return want, fmt.Errorf("+%d: flip %+v, eval %+v", c, got, want)
	}
	for i := range full.dist {
		t := base
		if e.mark[i] == e.gen {
			t = e
		}
		if t.dist[i] != full.dist[i] || t.via[i] != full.via[i] || t.hops[i] != full.hops[i] {
			return want, fmt.Errorf("+%d pair (%d,%d): flip dist/k*/hops %d/%d/%d, eval %d/%d/%d",
				c, i/e.n, i%e.n, t.dist[i], t.via[i], t.hops[i], full.dist[i], full.via[i], full.hops[i])
		}
	}
	return want, nil
}

// TestPlannerFlipMatchesEval follows full greedy runs and requires the
// incremental scorer to match a full eval on every candidate along the
// way.
func TestPlannerFlipMatchesEval(t *testing.T) {
	for _, g := range []struct {
		kind Kind
		w, h int
	}{{KindMesh, 8, 8}, {KindTorus, 8, 8}, {KindCMesh, 8, 8}, {KindMesh, 6, 7}, {KindTorus, 6, 5}, {KindTorus, 7, 7}} {
		p := newPlannerOn(t, g.kind, g.w, g.h)
		base, e, full := p.newEvaluator(), p.newEvaluator(), p.newEvaluator()
		on := base.on
		cands, mismatches := 0, 0
		for step := range on {
			bt, err := base.eval(on)
			if err != nil {
				t.Fatal(err)
			}
			bestV := -1
			var bestT totals
			for c := range on {
				if on[c] {
					continue
				}
				cands++
				want, err := checkFlip(base, e, full, bt, c)
				if err != nil {
					if mismatches++; mismatches <= 3 {
						t.Errorf("%v %dx%d step %d %v", g.kind, g.w, g.h, step, err)
					}
				}
				if bestV < 0 || want.less(bestT) {
					bestV, bestT = c, want
				}
			}
			on[bestV] = true
		}
		t.Logf("%v %dx%d: %d candidates, %d mismatches", g.kind, g.w, g.h, cands, mismatches)
	}
}

// FuzzPlannerFlip checks the incremental scorer against a full eval and
// Floyd–Warshall on arbitrary base on-sets and candidates of grids up to
// 6x6: the grid is (2 + w%5) x (2 + h%5), bit v of mask turns router v
// on, and router cand%N, forced off in the base, is flipped. The seed
// corpus is in testdata/fuzz/FuzzPlannerFlip.
func FuzzPlannerFlip(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, w, h uint8, mask uint64, cand uint8) {
		topo, err := New(Kind(kind%3), 2+int(w%5), 2+int(h%5))
		if err != nil {
			t.Skip(err)
		}
		r, err := NewRing(topo)
		if err != nil {
			t.Skip(err)
		}
		p := NewPlanner(topo, r)
		base := p.newEvaluator()
		for v := range base.on {
			base.on[v] = mask>>v&1 != 0
		}
		c := int(cand) % len(base.on)
		base.on[c] = false
		bt, err := base.eval(base.on)
		if err != nil {
			t.Fatal(err)
		}
		want, err := checkFlip(base, p.newEvaluator(), p.newEvaluator(), bt, c)
		if err != nil {
			t.Fatalf("%v %v base %v: %v", topo.Kind(), topo, base.on, err)
		}
		on := slices.Clone(base.on)
		on[c] = true
		if fw, err := floydWarshall(p, on); err != nil || fw != want {
			t.Fatalf("%v %v on %v: eval %+v, Floyd–Warshall %+v (%v)", topo.Kind(), topo, on, want, fw, err)
		}
	})
}

// TestPlannerWorkerPanic makes one candidate's score panic: best must
// return it as the step's error instead of crashing the process.
func TestPlannerWorkerPanic(t *testing.T) {
	p := newPlannerOn(t, KindMesh, 4, 4)
	_, _, err := best(context.Background(), p.evaluators(), 8, func(e *evaluator, i int) (totals, error) {
		if i == 3 {
			panic("score bug")
		}
		return totals{hops: int64(i)}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "score bug") {
		t.Fatalf("err = %v, want the candidate's panic", err)
	}
}

// TestEvalOracleAllMasks4x4 compares the evaluators on every on-set of the
// paper's 4x4 mesh.
func TestEvalOracleAllMasks4x4(t *testing.T) {
	p := newPlannerOn(t, KindMesh, 4, 4)
	e := p.newEvaluator()
	on := make([]bool, 16)
	mismatches := 0
	for mask := 0; mask < 1<<16; mask++ {
		for v := range on {
			on[v] = mask>>v&1 != 0
		}
		got, err := e.eval(on)
		if err != nil {
			t.Fatal(err)
		}
		want, err := floydWarshall(p, on)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			if mismatches++; mismatches <= 3 {
				t.Errorf("mask %#04x: got %+v, Floyd–Warshall %+v", mask, got, want)
			}
		}
	}
	t.Logf("65536 masks, %d mismatches", mismatches)
}

// TestPlannerGoldenSets checks the default performance-centric sets, and
// for 4x4 grids every point of the Figure 6 curve, against
// testdata/perf_centric_sets.json, which the Floyd–Warshall planner
// generated.
func TestPlannerGoldenSets(t *testing.T) {
	raw, err := os.ReadFile("testdata/perf_centric_sets.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		Set   json.RawMessage   `json:"set"`
		Curve []json.RawMessage `json:"curve"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	same := func(name string, got []int, want json.RawMessage) {
		t.Helper()
		if got == nil {
			got = []int{}
		}
		b, _ := json.Marshal(got)
		if string(b) != string(want) {
			t.Errorf("%s: got %s, want %s", name, b, want)
		}
	}
	for _, g := range []struct {
		kind Kind
		w, h int
	}{{KindMesh, 4, 4}, {KindTorus, 4, 4}, {KindCMesh, 4, 4}, {KindMesh, 8, 8}, {KindTorus, 8, 8},
		{KindMesh, 10, 10}, {KindTorus, 10, 10}, {KindMesh, 12, 12}} {
		name := fmt.Sprintf("%v%dx%d", g.kind, g.w, g.h)
		want, ok := golden[name]
		if !ok {
			t.Fatalf("%s: no golden entry", name)
		}
		p := newPlannerOn(t, g.kind, g.w, g.h)
		set, err := p.PerformanceCentric(context.Background(), p.DefaultK())
		if err != nil {
			t.Fatal(err)
		}
		same(name, set, want.Set)
		if want.Curve == nil {
			continue
		}
		pts, err := p.Tradeoff()
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(want.Curve) {
			t.Fatalf("%s: %d curve points, want %d", name, len(pts), len(want.Curve))
		}
		for k, pt := range pts {
			same(fmt.Sprintf("%s K=%d", name, k), pt.OnSet, want.Curve[k])
		}
	}
}

// TestGreedySetWorkersAgree checks that the parallel candidate reduction
// picks the same set whatever the worker count.
func TestGreedySetWorkersAgree(t *testing.T) {
	p := newPlannerOn(t, KindTorus, 6, 5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []int
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		set, err := p.GreedySet(context.Background(), p.Topo.N())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = set
		} else if fmt.Sprint(set) != fmt.Sprint(first) {
			t.Errorf("GOMAXPROCS=%d: %v, want %v", procs, set, first)
		}
	}
}

// TestGreedySetCancel cancels a 16x16 greedy run mid-flight: it must stop
// within 100 ms with context.Canceled.
func TestGreedySetCancel(t *testing.T) {
	p := newPlannerOn(t, KindMesh, 16, 16)
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan time.Time, 1)
	timer := time.AfterFunc(50*time.Millisecond, func() {
		canceled <- time.Now()
		cancel()
	})
	defer timer.Stop()
	_, err := p.GreedySet(ctx, p.DefaultK())
	stopped := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lag := stopped.Sub(<-canceled); lag > 100*time.Millisecond {
		t.Errorf("stopped %v after cancel, want within 100ms", lag)
	}
}
