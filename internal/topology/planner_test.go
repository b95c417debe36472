package topology

import (
	"context"
	"math"
	"testing"
)

func newPlanner4x4(t *testing.T) *Planner {
	t.Helper()
	m := MustMesh(4, 4)
	r, err := NewRing(m)
	if err != nil {
		t.Fatal(err)
	}
	return NewPlanner(m, r)
}

func TestEvalAllOn(t *testing.T) {
	p := newPlanner4x4(t)
	on := make([]bool, 16)
	for i := range on {
		on[i] = true
	}
	hops, perHop, err := p.Eval(on)
	if err != nil {
		t.Fatal(err)
	}
	// All routers on: shortest paths are Manhattan distances; average
	// pairwise distance on 4x4 mesh is 2.5 hops.
	if math.Abs(hops-8.0/3.0) > 1e-9 {
		t.Errorf("avg hops = %v, want 8/3", hops)
	}
	if math.Abs(perHop-5.0) > 1e-9 {
		t.Errorf("per-hop latency = %v, want 5 (all normal pipelines)", perHop)
	}
}

func TestEvalAllOff(t *testing.T) {
	p := newPlanner4x4(t)
	on := make([]bool, 16)
	hops, perHop, err := p.Eval(on)
	if err != nil {
		t.Fatal(err)
	}
	// All routers off: only the ring is usable. Average ordered-pair ring
	// distance on a 16-node ring is (1+2+...+15)/15 = 8.
	if math.Abs(hops-8.0) > 1e-9 {
		t.Errorf("avg hops = %v, want 8 (pure ring)", hops)
	}
	if math.Abs(perHop-3.0) > 1e-9 {
		t.Errorf("per-hop latency = %v, want 3 (all bypass)", perHop)
	}
}

func TestEvalSizeMismatch(t *testing.T) {
	p := newPlanner4x4(t)
	if _, _, err := p.Eval(make([]bool, 5)); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestEvalMonotonicTrend(t *testing.T) {
	// Turning on more routers never increases the optimal average
	// distance (Figure 6's left axis decreases monotonically).
	p := newPlanner4x4(t)
	pts, err := p.Tradeoff()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 17 {
		t.Fatalf("got %d tradeoff points, want 17", len(pts))
	}
	for k := 1; k < len(pts); k++ {
		if pts[k].AvgHops > pts[k-1].AvgHops+1e-9 {
			t.Errorf("avg hops increased from K=%d (%v) to K=%d (%v)",
				k-1, pts[k-1].AvgHops, k, pts[k].AvgHops)
		}
	}
	// Endpoints match the closed forms above.
	if math.Abs(pts[0].AvgHops-8.0) > 1e-9 || math.Abs(pts[16].AvgHops-8.0/3.0) > 1e-9 {
		t.Errorf("endpoint avg hops = %v / %v, want 8 / 8/3", pts[0].AvgHops, pts[16].AvgHops)
	}
	// Per-hop latency rises from 3 (pure bypass) to 5 (pure pipeline),
	// the Figure 6 right axis.
	if math.Abs(pts[0].PerHopCycles-3.0) > 1e-9 || math.Abs(pts[16].PerHopCycles-5.0) > 1e-9 {
		t.Errorf("endpoint per-hop = %v / %v, want 3 / 5", pts[0].PerHopCycles, pts[16].PerHopCycles)
	}
}

func TestPerformanceCentricSix(t *testing.T) {
	// With 6 routers on, average distance should be close to the all-on
	// 2.5 hops (the paper reports a large reduction at K=6).
	p := newPlanner4x4(t)
	set, err := p.PerformanceCentric(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 6 {
		t.Fatalf("set size %d, want 6", len(set))
	}
	on := make([]bool, 16)
	for _, v := range set {
		on[v] = true
	}
	hops, _, err := p.Eval(on)
	if err != nil {
		t.Fatal(err)
	}
	if hops > 4.0 {
		t.Errorf("best 6-router avg distance %v, expected < 4 hops", hops)
	}
}

func TestPerformanceCentricValidation(t *testing.T) {
	p := newPlanner4x4(t)
	if _, err := p.PerformanceCentric(context.Background(), -1); err == nil {
		t.Error("negative K should fail")
	}
	if _, err := p.PerformanceCentric(context.Background(), 17); err == nil {
		t.Error("K > N should fail")
	}
}

func TestGreedyTradeoffLargeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("greedy planner on 8x8 is slow in -short mode")
	}
	m := MustMesh(8, 8)
	r, err := NewRing(m)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(m, r)
	pts, err := p.Tradeoff()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 65 {
		t.Fatalf("got %d points, want 65", len(pts))
	}
	for k := 1; k < len(pts); k++ {
		if pts[k].AvgHops > pts[k-1].AvgHops+1e-9 {
			t.Errorf("greedy avg hops increased at K=%d", k)
		}
	}
	if math.Abs(pts[64].AvgHops-16.0/3.0) > 1e-6 {
		t.Errorf("all-on 8x8 avg hops = %v, want 16/3", pts[64].AvgHops)
	}
}

func TestKnee(t *testing.T) {
	pts := []TradeoffPoint{
		{K: 0, AvgHops: 8},
		{K: 1, AvgHops: 6},
		{K: 2, AvgHops: 5},
		{K: 3, AvgHops: 4.9},
		{K: 4, AvgHops: 4.85},
	}
	if k := Knee(pts, 0.5); k != 2 {
		t.Errorf("Knee = %d, want 2", k)
	}
	if k := Knee(pts, 0.01); k != 4 {
		t.Errorf("Knee with tiny gain = %d, want 4", k)
	}
}

func TestGreedySet(t *testing.T) {
	p := newPlanner4x4(t)
	set, err := p.GreedySet(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 6 {
		t.Fatalf("set size %d", len(set))
	}
	seen := map[int]bool{}
	for _, v := range set {
		if seen[v] || v < 0 || v > 15 {
			t.Fatalf("bad set %v", set)
		}
		seen[v] = true
	}
	// Greedy should get close to the exhaustive optimum on 4x4.
	on := make([]bool, 16)
	for _, v := range set {
		on[v] = true
	}
	gh, _, err := p.Eval(on)
	if err != nil {
		t.Fatal(err)
	}
	best, err := p.PerformanceCentric(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	on2 := make([]bool, 16)
	for _, v := range best {
		on2[v] = true
	}
	bh, _, err := p.Eval(on2)
	if err != nil {
		t.Fatal(err)
	}
	if gh > bh*1.15 {
		t.Errorf("greedy distance %.3f too far from optimal %.3f", gh, bh)
	}
	if _, err := p.GreedySet(context.Background(), -1); err == nil {
		t.Error("negative K should fail")
	}
	if _, err := p.GreedySet(context.Background(), 99); err == nil {
		t.Error("oversized K should fail")
	}
}
