package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rrq/internal/geom"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// bruteReduceAndOrder is the plane reduction and W(h) order with W
// counted the direct way, over every plane pair, and a stable sort by
// descending W. The reduction is the solver's own k-skyband pass: on
// planes one ulp apart KSkyband's tie order can keep a different set.
func bruteReduceAndOrder(planes []geom.Hyperplane, k int, noReduce, noOrder bool) []geom.Hyperplane {
	m := len(planes)
	neg := make([]vec.Vec, m)
	for i, h := range planes {
		neg[i] = h.Unit().Scale(-1)
	}
	var keep []int
	if noReduce {
		for i := 0; i < m; i++ {
			keep = append(keep, i)
		}
	} else {
		keep = skyband.KSkybandScratch(neg, k, &skyband.Scratch{})
	}
	w := make([]int, len(keep))
	kept := make([]geom.Hyperplane, len(keep))
	for out, i := range keep {
		kept[out] = planes[i]
		for j := 0; j < m; j++ {
			if j != i && skyband.Dominates(planes[j].Unit(), planes[i].Unit()) {
				w[out]++
			}
		}
	}
	if noOrder {
		return kept
	}
	order := make([]int, len(kept))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	out := make([]geom.Hyperplane, len(kept))
	for i, idx := range order {
		out[i] = kept[idx]
	}
	return out
}

// tiedPlanes draws m planes whose normals take coordinates from a coarse
// grid, so exact duplicates, equal sums without dominance (permuted
// coordinates) and long dominance chains are all common. Some planes copy
// another's unit normal with one coordinate moved by one ulp: a strict
// dominance whose computed sum usually rounds to the original's.
func tiedPlanes(rng *rand.Rand, m, d int) []geom.Hyperplane {
	grid := []float64{-2, -1, -0.5, 0, 0.5, 1, 2}
	var planes []geom.Hyperplane
	for len(planes) < m {
		var w vec.Vec
		switch {
		case len(planes) > 0 && rng.Intn(4) == 0:
			// A unit normal's norm rounds to 1 with or without the nudge, so
			// NewHyperplane keeps the nudged coordinates as they are.
			u := planes[rng.Intn(len(planes))].Unit().Clone()
			r := rng.Intn(d)
			u[r] = math.Nextafter(u[r], math.Inf(2*rng.Intn(2)-1))
			planes = append(planes, geom.NewHyperplane(u, len(planes)))
			continue
		case len(planes) > 0 && rng.Intn(4) == 0:
			w = planes[rng.Intn(len(planes))].Normal.Clone() // duplicate
		case len(planes) > 0 && rng.Intn(4) == 0:
			w = planes[rng.Intn(len(planes))].Normal.Clone() // permuted
			rng.Shuffle(d, func(i, j int) { w[i], w[j] = w[j], w[i] })
		default:
			w = vec.New(d)
			for i := range w {
				w[i] = grid[rng.Intn(len(grid))]
			}
		}
		if w.Norm() < 1e-9 {
			continue
		}
		planes = append(planes, geom.NewHyperplane(w, len(planes)))
	}
	return planes
}

// The W count looks only at the sum-ordered suffix that can hold a
// dominator; the kept planes and their insertion order must be exactly
// those of the count over every plane pair, for every ablation and with
// the arena reused across calls.
func TestReduceAndOrderMatchesBruteW(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	a := &Arena{}
	equalSums := 0
	for trial := 0; trial < 300; trial++ {
		d := 2 + rng.Intn(4)
		planes := tiedPlanes(rng, 1+rng.Intn(60), d)
		k := 1 + rng.Intn(5)
		sums := map[float64]int{}
		for _, h := range planes {
			sums[h.Unit().Sum()]++
		}
		equalSums += len(planes) - len(sums)
		for _, mode := range [][2]bool{{false, false}, {true, false}, {false, true}} {
			want := bruteReduceAndOrder(planes, k, mode[0], mode[1])
			got := reduceAndOrderPlanesOpt(planes, k, mode[0], mode[1], a)
			if len(got) != len(want) {
				t.Fatalf("trial %d mode %v: %d planes kept, brute count keeps %d", trial, mode, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("trial %d mode %v: position %d holds plane %d, brute count orders plane %d there",
						trial, mode, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
	if equalSums < 1000 {
		t.Fatalf("only %d planes shared a sum with another; test is vacuous", equalSums)
	}
}
