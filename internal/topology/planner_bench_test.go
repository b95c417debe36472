package topology

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkPlannerGreedy times one greedy performance-centric set at
// DefaultK on the grids whose planning dominates a NoRD run's setup.
func BenchmarkPlannerGreedy(b *testing.B) {
	for _, g := range []struct {
		kind Kind
		w, h int
	}{{KindMesh, 10, 10}, {KindTorus, 10, 10}, {KindMesh, 12, 12}} {
		b.Run(fmt.Sprintf("%v%dx%d", g.kind, g.w, g.h), func(b *testing.B) {
			p := newPlannerOn(b, g.kind, g.w, g.h)
			for b.Loop() {
				if _, err := p.GreedySet(context.Background(), p.DefaultK()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
