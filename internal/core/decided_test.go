package core

import (
	"context"
	"math/rand"
	"testing"

	"rrq/internal/diffcheck/corpus"
	"rrq/internal/geom"
	"rrq/internal/vec"
)

// decidedByBuild is the definition the early exit must reproduce: the
// query is decided when the full plane build leaves no rank budget.
func decidedByBuild(pts []vec.Vec, q Query) bool {
	return BuildPlanes(pts, q).KEff(q.K) <= 0
}

// TestDecidedBaseMatchesBuildPlanes sweeps every degenerate corpus family
// at d = 2..6 and every k the corpus uses: the allocation-free scan must
// decide exactly the queries whose full plane build has KEff ≤ 0.
func TestDecidedBaseMatchesBuildPlanes(t *testing.T) {
	decided, open := 0, 0
	for fam := byte(0); fam < corpus.NumFamilies; fam++ {
		for d := 2; d <= 6; d++ {
			for seed := int64(0); seed < 24; seed++ {
				data := corpus.Encode(fam, d-2, int(seed)*7, int(seed), int(seed)+int(fam), seed*7919+int64(d))
				ins, ok := corpus.DecodeDim(data, d)
				if !ok {
					t.Fatal("corpus bytes too short")
				}
				for k := 1; k <= 5; k++ {
					q := Query{Q: ins.Q, K: k, Eps: ins.Eps}
					want := decidedByBuild(ins.Pts, q)
					if got := decidedBase(ins.Pts, q); got != want {
						t.Fatalf("%s d=%d seed=%d k=%d: decidedBase %v, BuildPlanes KEff ≤ 0 %v",
							ins.Family, d, seed, k, got, want)
					}
					if want {
						decided++
					} else {
						open++
					}
				}
			}
		}
	}
	if decided == 0 || open == 0 {
		t.Fatalf("vacuous sweep: %d decided, %d open", decided, open)
	}
}

// TestDecidedBaseAtTolerance places points so that some coordinates of
// q − (1−ε)p sit within ±geom.Tol of zero — just inside, exactly on and
// just outside the band BuildPlanes treats as zero — where a scan with a
// different comparison (or a different rounding of the normal) would
// disagree with the build.
func TestDecidedBaseAtTolerance(t *testing.T) {
	offsets := []float64{0, geom.Tol / 2, -geom.Tol / 2, geom.Tol, -geom.Tol, 2 * geom.Tol, -2 * geom.Tol, 1e-3, -1e-3}
	rng := rand.New(rand.NewSource(0x7e57))
	decided, open := 0, 0
	for trial := 0; trial < 4000; trial++ {
		d := 2 + rng.Intn(5)
		eps := []float64{0, 0.05, 0.1, 0.3}[rng.Intn(4)]
		q := Query{Q: vec.New(d), K: 1 + rng.Intn(4), Eps: eps}
		for j := range q.Q {
			q.Q[j] = 0.2 + 0.6*rng.Float64()
		}
		scale := 1 - eps
		pts := make([]vec.Vec, 2+rng.Intn(10))
		for i := range pts {
			p := vec.New(d)
			for j := range p {
				// Start at the zero-normal point q/(1−ε), then move each
				// coordinate by a tolerance-sized offset; the offset's
				// sign decides that component of the normal.
				p[j] = q.Q[j]/scale + offsets[rng.Intn(len(offsets))]
			}
			pts[i] = p
		}
		want := decidedByBuild(pts, q)
		if got := decidedBase(pts, q); got != want {
			t.Fatalf("trial %d: decidedBase %v, BuildPlanes KEff ≤ 0 %v (q=%v pts=%v)", trial, got, want, q, pts)
		}
		if want {
			decided++
		} else {
			open++
		}
	}
	if decided == 0 || open == 0 {
		t.Fatalf("vacuous sweep: %d decided, %d open", decided, open)
	}
}

// TestPlaneResolversDecideFirst pins where the early exit sits: a decided
// query resolves to a set with no crossing planes and Base = k, without
// consulting the plane source, the batch sharing view or the arena.
func TestPlaneResolversDecideFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := randomInstance(rng, 300, 3)
	q := Query{Q: vec.Vec{0.05, 0.05, 0.05}, K: 4, Eps: 0.1}
	if !decidedByBuild(pts, q) {
		t.Fatal("precondition: the weak query must be decided")
	}
	src := func([]vec.Vec, Query) PlaneSet {
		t.Fatal("plane source consulted for a decided query")
		return PlaneSet{}
	}
	want := PlaneSet{Base: q.K}
	if got := planesFor(src, pts, q); got.Base != want.Base || got.Crossing != nil {
		t.Errorf("planesFor = %+v, want %+v", got, want)
	}
	a := &Arena{share: &shareView{}}
	if got := planesForArena(src, pts, q, a); got.Base != want.Base || got.Crossing != nil {
		t.Errorf("planesForArena = %+v, want %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(50, func() { decidedBase(pts, q) }); allocs != 0 {
		t.Errorf("decidedBase allocates %.1f per run, want 0", allocs)
	}
}

// TestDecidedSolveAllocs pins a decided E-PT solve through an indexed
// Prepared: it reports PlanesBuilt = 0 and its allocations do not grow with
// the dataset, which they would if any crossing plane were built.
func TestDecidedSolveAllocs(t *testing.T) {
	q := Query{Q: vec.Vec{0.5, 0.5, 0.05}, K: 4, Eps: 0.1}
	var allocs [2]float64
	for i, n := range []int{100, 2000} {
		rng := rand.New(rand.NewSource(int64(n)))
		pts, _ := randomInstance(rng, n, 3)
		if !decidedByBuild(pts, q) || len(BuildPlanes(pts, q).Crossing) < n/4 {
			t.Fatalf("n=%d: precondition: want a decided query with many crossing planes", n)
		}
		built := 0
		prep := PrepareIndexed(pts, 3, func(int) []vec.Vec { return pts }, func(pts []vec.Vec, q Query) PlaneSet {
			built++
			return BuildPlanes(pts, q)
		})
		ctx := context.Background()
		r, st, err := EPTSolver{}.Solve(ctx, prep, q)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Empty() || st != (Stats{}) {
			t.Fatalf("n=%d: decided solve returned %d pieces, stats %+v; want empty and zero stats", n, r.NumPieces(), st)
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, _, err := (EPTSolver{}).Solve(ctx, prep, q); err != nil {
				t.Fatal(err)
			}
		})
		if built != 0 {
			t.Fatalf("n=%d: the plane source built %d sets for a decided query", n, built)
		}
	}
	if allocs[1] != allocs[0] || allocs[0] > 8 {
		t.Errorf("decided solve allocates %.0f (n=100) and %.0f (n=2000) per run; want equal and at most 8", allocs[0], allocs[1])
	}
}
