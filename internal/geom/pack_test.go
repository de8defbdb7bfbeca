package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rrq/internal/vec"
)

// arrangement cuts the d-simplex by every plane that crosses a cell and
// returns all the leaves: cells sharing their planes' storage, as the cells
// of one solved region do.
func arrangement(d int, planes []Hyperplane) []*Cell {
	cells := []*Cell{NewSimplex(d)}
	for _, h := range planes {
		var next []*Cell
		for _, c := range cells {
			if c.Relation(h) != RelCross {
				next = append(next, c)
				continue
			}
			neg, pos := c.Split(h)
			for _, s := range []*Cell{neg, pos} {
				if s != nil {
					next = append(next, s)
				}
			}
		}
		cells = next
	}
	return cells
}

// checkPackMatchesCells asserts that cells base..base+len(cells)−1 of p
// hold exactly the given cells: the same constraints in insertion order
// (normal bits, sign, and the plane's geometry), the same vertices in
// order, the same barycenter bits and the same answers to Contains and
// SamplePoint.
func checkPackMatchesCells(t *testing.T, p *Pack, base int, cells []*Cell, rng *rand.Rand) {
	t.Helper()
	d := p.Dim()
	for ci, c := range cells {
		i := base + ci
		var got []Constraint
		p.VisitConstraints(i, func(con Constraint) { got = append(got, con) })
		want := c.Constraints()
		if len(got) != len(want) {
			t.Fatalf("cell %d: %d constraints, want %d", i, len(got), len(want))
		}
		for k := range want {
			g, w := got[k], want[k]
			if g.Sign != w.Sign || !sameBits(g.H.Normal, w.H.Normal) ||
				g.H.tangentNorm != w.H.tangentNorm || g.H.offsetMean != w.H.offsetMean {
				t.Fatalf("cell %d constraint %d: packed %v sign %d, want %v sign %d", i, k, g.H, g.Sign, w.H, w.Sign)
			}
		}
		verts := c.Vertices()
		if p.NumVertices(i) != len(verts) {
			t.Fatalf("cell %d: %d vertices, want %d", i, p.NumVertices(i), len(verts))
		}
		for k, v := 0, p.Vertices(i); k < len(verts); k, v = k+1, v[d:] {
			if !sameBits(v[:d], verts[k]) {
				t.Fatalf("cell %d vertex %d: %v, want %v", i, k, v[:d], verts[k])
			}
		}
		if !sameBits(p.Center(i), c.Center()) {
			t.Fatalf("cell %d: center %v, want %v", i, p.Center(i), c.Center())
		}
		for s := 0; s < 20; s++ {
			u := vec.RandSimplex(rng, c.Dim())
			if s%2 == 0 {
				u = c.SamplePoint(rng) // inside, or on the boundary
			}
			if p.CellContains(i, u) != c.Contains(u) {
				t.Fatalf("cell %d: packed Contains(%v) = %v, cell says %v", i, u, p.CellContains(i, u), c.Contains(u))
			}
		}
		seed := rng.Int63()
		if !sameBits(p.SamplePoint(i, rand.New(rand.NewSource(seed))), c.SamplePoint(rand.New(rand.NewSource(seed)))) {
			t.Fatalf("cell %d: SamplePoint differs from the cell's on one seed", i)
		}
	}
}

func sameBits(a, b vec.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestPackMatchesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for d := 2; d <= 6; d++ {
		for trial := 0; trial < 5; trial++ {
			planes := randPlanes(4+trial, d, int64(100*d+trial))
			cells := arrangement(d, planes)
			p := PackCells(d, nil, cells)
			if p.NumCells() != len(cells) || p.Dim() != d {
				t.Fatalf("d=%d: pack holds %d cells of dim %d, want %d of dim %d", d, p.NumCells(), p.Dim(), len(cells), d)
			}
			// Shared storage is one plane, however many cells it cuts.
			if p.NumPlanes() > len(planes) {
				t.Fatalf("d=%d: %d planes packed from %d distinct ones", d, p.NumPlanes(), len(planes))
			}
			checkPackMatchesCells(t, &p, 0, cells, rng)
		}
	}
}

// Plane identity is the normal's storage, never the ID: planes with equal
// IDs and different normals (a decoded region numbers each cell's planes
// from 0; anytime joins cells cut under other queries) stay distinct, and
// one normal stays one plane under different IDs. A base pack's planes
// keep their numbers and the new cells' planes follow them.
func TestPackPlaneIdentityIgnoresIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := 4
	a := randPlanes(5, d, 1)
	b := randPlanes(5, d, 2)
	for i := range b {
		b[i].ID = a[i].ID // colliding IDs, different normals
	}
	cellsA, cellsB := arrangement(d, a), arrangement(d, b)
	if len(cellsA) < 4 || len(cellsB) < 4 {
		t.Fatalf("%d and %d cells; test is vacuous", len(cellsA), len(cellsB))
	}
	both := PackCells(d, nil, append(append([]*Cell(nil), cellsA...), cellsB...))
	base := PackCells(d, nil, cellsA)
	merged := PackCells(d, &base, cellsB)
	for name, p := range map[string]*Pack{"both": &both, "merged": &merged} {
		if p.NumPlanes() != countPlanes(cellsA)+countPlanes(cellsB) {
			t.Fatalf("%s: %d planes, want %d", name, p.NumPlanes(), countPlanes(cellsA)+countPlanes(cellsB))
		}
		checkPackMatchesCells(t, p, 0, cellsA, rng)
		checkPackMatchesCells(t, p, len(cellsA), cellsB, rng)
	}
	for i := 0; i < base.NumCells(); i++ {
		for k, r := range base.Refs(i) {
			if merged.Refs(i)[k] != r {
				t.Fatalf("merging renumbered base cell %d's constraint %d", i, k)
			}
		}
	}
	// One normal under two IDs is one plane.
	h := a[0]
	h2 := h
	h2.ID = 99
	c1 := NewSimplex(d).Clip(h, +1)
	c2 := NewSimplex(d).Clip(h2, -1)
	if p := PackCells(d, nil, []*Cell{c1, c2}); p.NumPlanes() != 1 || p.Refs(0)[0].Sign() != 1 || p.Refs(1)[0].Sign() != -1 {
		t.Fatalf("one normal under two IDs packs as %d planes", p.NumPlanes())
	}
}

// countPlanes counts the distinct normal arrays the cells are cut by.
func countPlanes(cells []*Cell) int {
	seen := map[*float64]bool{}
	for _, c := range cells {
		for _, con := range c.Constraints() {
			seen[&con.H.Normal[0]] = true
		}
	}
	return len(seen)
}

// No element the pack stores may hold a pointer: that is what lets the
// collector mark a cached region without scanning it.
func TestPackHoldsNoPointers(t *testing.T) {
	pt := reflect.TypeOf(Pack{})
	for i := 0; i < pt.NumField(); i++ {
		f := pt.Field(i)
		elem := f.Type
		if elem.Kind() == reflect.Slice {
			elem = elem.Elem()
		}
		if hasPointers(elem) {
			t.Errorf("Pack.%s stores %v, which holds a pointer", f.Name, elem)
		}
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// Packing allocates the pack's blocks and nothing per cell, plane or
// vertex: the count is the same for 2 cells as for hundreds.
func TestPackAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	d := 4
	large := arrangement(d, randPlanes(30, d, 5))
	if len(large) < 100 {
		t.Fatalf("%d cells; test is vacuous", len(large))
	}
	small := large[:2]
	base := PackCells(d, nil, small)
	var counts []float64
	for _, run := range []func(){
		func() { PackCells(d, nil, small) },
		func() { PackCells(d, nil, large) },
		func() { PackCells(d, &base, large) },
	} {
		counts = append(counts, testing.AllocsPerRun(20, run))
	}
	for _, n := range counts {
		if n != counts[0] || n > 3 {
			t.Fatalf("packing allocates %v for 2, %d and 2+%d cells; want one constant ≤ 3", counts, len(large), len(large))
		}
	}
}

// Every read is a pure read: packs answer from many goroutines at once
// (run under -race).
func TestPackConcurrentReads(t *testing.T) {
	d := 3
	cells := arrangement(d, randPlanes(6, d, 7))
	p := PackCells(d, nil, cells)
	want := p.MeasureExact3D()
	done := make(chan float64)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < p.NumCells(); i++ {
				p.Center(i)
			}
			done <- p.MeasureExact3D()
		}()
	}
	for g := 0; g < 4; g++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent exact measure %v, want %v", got, want)
		}
	}
}
