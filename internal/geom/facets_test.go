package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rrq/internal/vec"
)

// refFilterFacets is the facet filter Split used before tight ids were
// stamped: for each candidate, a binary search of every vertex's tight
// set. filterFacets must keep exactly its constraints, in its order.
func refFilterFacets(parent []Constraint, newCon Constraint, verts []vertex, dim int) []Constraint {
	out := make([]Constraint, 0, len(parent)+1)
	for _, con := range parent {
		if anyTight(verts, int32(dim+con.H.ID)) {
			out = append(out, con)
		}
	}
	if anyTight(verts, int32(dim+newCon.H.ID)) {
		out = append(out, newCon)
	}
	return out
}

// planeThrough returns a random plane through the simplex point p: a
// random normal w shifted by (p·w)·1, so that p·w' = p·w − (p·w)(p·1) = 0.
func planeThrough(rng *rand.Rand, p vec.Vec, id int) (Hyperplane, bool) {
	w := vec.New(p.Dim())
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	s := p.Dot(w)
	for i := range w {
		w[i] -= s
	}
	if w.Norm() < 1e-6 {
		return Hyperplane{}, false
	}
	return NewHyperplane(w, id), true
}

// facetCase is a cell beside the facet list the reference filter keeps
// for it.
type facetCase struct {
	cell *Cell
	ref  []Constraint
}

// TestFilterFacetsMatchesReference grows random partition trees in 3 to 5
// dimensions and checks every child's facet candidates against the
// reference filter: same constraints, same order, hence bit-identical
// sphere data and equal relations to fresh planes. Plane ids mix small
// ones, ids on both sides of markCap, ids far above it (as the rank tree's
// 1<<30+i) and ids already used in the lineage.
func TestFilterFacetsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var splits, pruned, keptAbove int
	for d := 3; d <= 5; d++ {
		for trial := 0; trial < 12; trial++ {
			leaves := []facetCase{{cell: NewSimplex(d)}}
			var used []int
			for cut := 0; cut < 40; cut++ {
				li := rng.Intn(len(leaves))
				leaf := leaves[li]
				if len(leaf.cell.verts) > 64 {
					// Repeated ids defeat edge detection and can multiply
					// vertices; stop refining such a cell.
					continue
				}
				id := cut
				switch rng.Intn(10) {
				case 0, 1:
					id = 1<<30 + cut
				case 2:
					id = markCap - d - 1 - cut // stamped id just below the cap
				case 3:
					id = markCap - d + cut // stamped id at or above it
				case 4:
					if len(used) > 0 {
						id = used[rng.Intn(len(used))]
					}
				}
				h, ok := planeThrough(rng, leaf.cell.SamplePoint(rng), id)
				if !ok {
					continue
				}
				used = append(used, id)
				neg, pos := leaf.cell.Split(h)
				var children []facetCase
				for _, side := range []struct {
					c    *Cell
					sign int
				}{{neg, -1}, {pos, +1}} {
					if side.c == nil {
						continue
					}
					ref := refFilterFacets(leaf.ref, Constraint{H: h, Sign: side.sign}, side.c.verts, d)
					checkFacets(t, rng, side.c, ref)
					splits++
					if len(ref) <= len(leaf.ref) {
						pruned++
					}
					for _, con := range ref {
						if d+con.H.ID >= markCap {
							keptAbove++
						}
					}
					children = append(children, facetCase{side.c, ref})
				}
				if len(children) == 0 {
					continue
				}
				leaves[li] = children[0]
				if len(children) == 2 && len(leaves) < 24 {
					leaves = append(leaves, children[1])
				}
			}
		}
	}
	if splits < 1000 || pruned < splits/4 || keptAbove < splits {
		t.Fatalf("%d splits, %d dropping a candidate, %d facets kept past the stamp cap; test is vacuous",
			splits, pruned, keptAbove)
	}
}

// checkFacets compares c's facet candidates with ref and c's sphere data
// and relations with those of the same cell built on ref.
func checkFacets(t *testing.T, rng *rand.Rand, c *Cell, ref []Constraint) {
	t.Helper()
	if len(c.facets) != len(ref) {
		t.Fatalf("%v: %d facet candidates, reference keeps %d", c, len(c.facets), len(ref))
	}
	refCell := &Cell{dim: c.dim, cons: c.cons, nCons: c.nCons, verts: c.verts}
	for i, n := range c.facets {
		if !reflect.DeepEqual(n.con, ref[i]) || &n.con.H.Normal[0] != &ref[i].H.Normal[0] {
			t.Fatalf("%v: facet %d is plane %d sign %d, reference has plane %d sign %d",
				c, i, n.con.H.ID, n.con.Sign, ref[i].H.ID, ref[i].Sign)
		}
		refCell.facets = append(refCell.facets, &consList{con: ref[i]})
	}
	ctr, refCtr := c.Center(), refCell.Center()
	for i := range ctr {
		if math.Float64bits(ctr[i]) != math.Float64bits(refCtr[i]) {
			t.Fatalf("%v: center %v, reference %v", c, ctr, refCtr)
		}
	}
	if math.Float64bits(c.InnerRadius()) != math.Float64bits(refCell.InnerRadius()) ||
		math.Float64bits(c.OuterRadius()) != math.Float64bits(refCell.OuterRadius()) {
		t.Fatalf("%v: radii %v/%v, reference %v/%v", c, c.InnerRadius(), c.OuterRadius(),
			refCell.InnerRadius(), refCell.OuterRadius())
	}
	for i := 0; i < 4; i++ {
		h, ok := planeThrough(rng, c.SamplePoint(rng), -1)
		if ok && c.Relation(h) != refCell.Relation(h) {
			t.Fatalf("%v: relation %v, reference %v", c, c.Relation(h), refCell.Relation(h))
		}
	}
}

// TestSplitAllocs pins the allocations of one Split of a warm 4-d cell
// by a plane that cuts it: per side the cell, its constraint node, its
// vertex slice and its facet slice, plus a point and a tight set for each
// vertex created on the plane (which both sides keep). The split scratch
// comes from a pool that the race detector drains at random, so the count
// is only exact without it.
func TestSplitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	cell := NewSimplex(4)
	for id := 0; id < 8; id++ {
		if h, ok := planeThrough(rng, cell.Center(), id); ok {
			if _, pos := cell.Split(h); pos != nil {
				cell = pos
			}
		}
	}
	var h Hyperplane
	found := false
	for i := 0; i < 64 && !found; i++ {
		var ok bool
		h, ok = planeThrough(rng, cell.SamplePoint(rng), 100+i)
		found = ok && cell.Relation(h) == RelCross && !anyVertexOn(cell, h)
	}
	if !found || len(cell.facets) < 4 {
		t.Fatalf("no crossing plane for %v with %d facets; test is vacuous", cell, len(cell.facets))
	}
	neg, pos := cell.Split(h)
	if neg == nil || pos == nil {
		t.Fatal("crossing plane left a side empty; test is vacuous")
	}
	// With no vertex on the plane, each side holds its own old vertices
	// plus every new one.
	created := (len(neg.verts) + len(pos.verts) - len(cell.verts)) / 2
	if created < 2 {
		t.Fatalf("split created %d vertices; test is vacuous", created)
	}
	want := float64(8 + 2*created)
	allocs := testing.AllocsPerRun(200, func() { cell.Split(h) })
	if allocs > want {
		t.Errorf("Split allocates %.1f per run, want at most %.0f (%d new vertices)", allocs, want, created)
	}
}

func anyVertexOn(c *Cell, h Hyperplane) bool {
	for _, v := range c.verts {
		if h.Side(v.pt) == SideOn {
			return true
		}
	}
	return false
}
