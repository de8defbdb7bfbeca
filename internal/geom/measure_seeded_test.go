package geom

import (
	"math"
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

// TestMeasureCellsSeededReproducible: equal seeds must give bit-identical
// estimates, and different seeds should (and here do) give different noise.
func TestMeasureCellsSeededReproducible(t *testing.T) {
	for d := 2; d <= 5; d++ {
		n := vec.New(d)
		for j := range n {
			n[j] = math.Cos(float64(j*d + 1))
		}
		cell := NewSimplex(d).Clip(NewHyperplane(n, 0), +1)
		if cell == nil {
			cell = NewSimplex(d)
		}
		p := packOf(cell)
		seeded := func(seed int64) float64 { return p.Measure(rand.New(rand.NewSource(seed)), 4000) }

		a, b := seeded(42), seeded(42)
		if a != b {
			t.Fatalf("d=%d: same seed gave %v and %v", d, a, b)
		}
		c := seeded(43)
		if a == c && a != 0 && a != 1 {
			t.Errorf("d=%d: different seeds gave identical nontrivial estimates %v", d, a)
		}
	}
}
