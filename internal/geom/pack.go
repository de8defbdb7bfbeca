package geom

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"rrq/internal/vec"
)

// Pack is a frozen list of convex cells in flat storage: a solved region
// once its solver is done with the partition tree. Every cell is fully
// described by its cut constraints and its maintained extreme points, so
// that is all a pack keeps, in three blocks whose element types hold no
// pointer — the collector marks a pack without scanning it, however many
// cells it holds:
//
//   - a plane table: each distinct plane's unit normal (stride Dim) plus
//     its tangent norm and offset mean, so Contains and AffineDist run the
//     same arithmetic as on the Hyperplane the cell was cut by;
//   - the cells' constraint refs (plane number and sign), cell by cell,
//     each cell's in insertion order;
//   - the cells' vertex coordinates (stride Dim), cell by cell, each
//     cell's in its maintained order.
//
// A pack is immutable, and every method is a pure read: concurrent use
// needs no synchronization. The zero Pack holds no cells.
type Pack struct {
	dim     int
	normals []float64 // plane j's unit normal: normals[j*dim : (j+1)*dim]
	shape   []float64 // plane j's tangent norm and offset mean: shape[2j], shape[2j+1]
	refs    []Ref
	refOff  []uint32 // cell i's refs: refs[refOff[i]:refOff[i+1]]
	vertOff []uint32 // cell i's vertices: verts[vertOff[i]*dim : vertOff[i+1]*dim]
	verts   []float64
}

// Ref is one constraint of a packed cell: the number of its plane in the
// pack's plane table, shifted left by one, with the low bit set when the
// cell keeps the plane's negative side.
type Ref uint32

// Plane returns the number of the constraint's plane in the pack.
func (r Ref) Plane() int { return int(r >> 1) }

// Sign returns +1 when the constraint keeps u·normal ≥ 0, −1 when it keeps
// u·normal ≤ 0.
func (r Ref) Sign() int {
	if r&1 != 0 {
		return -1
	}
	return +1
}

// packScratch is the plane dedup state of one PackCells call, pooled so
// packing allocates only the pack's own blocks. seen maps a normal's
// backing array to its plane number: planes are the same plane exactly
// when they share that storage — IDs do not identify them, since a decoded
// region numbers each cell's planes from 0 and a warm-started anytime
// region joins cells cut under another query.
type packScratch struct {
	seen   map[*float64]uint32
	planes []Hyperplane
}

var packPool = sync.Pool{New: func() any { return &packScratch{seen: make(map[*float64]uint32)} }}

// PackCells freezes the cells of base (nil for none), followed by cells,
// into a new pack of dimension d; base is left unchanged. Its planes keep
// their numbers, and the new cells' planes are numbered after them, once
// each. Packing allocates the same few blocks whatever the cell count.
func PackCells(d int, base *Pack, cells []*Cell) Pack {
	nBase := base.NumCells()
	n := nBase + len(cells)
	if n == 0 {
		return Pack{dim: d}
	}
	nRefs, nVerts, basePlanes := 0, 0, 0
	if base != nil {
		nRefs, nVerts, basePlanes = len(base.refs), len(base.verts)/d, base.NumPlanes()
	}
	for _, c := range cells {
		nRefs += c.nCons
		nVerts += len(c.verts)
	}
	refs := make([]Ref, nRefs)
	off := make([]uint32, 2*(n+1))
	refOff, vertOff := off[:n+1:n+1], off[n+1:]
	if base != nil {
		copy(refs, base.refs)
		copy(refOff, base.refOff)
		copy(vertOff, base.vertOff)
	}

	sc := packPool.Get().(*packScratch)
	end := int(refOff[nBase])
	for i, c := range cells {
		end += c.nCons
		// The chain links newest to oldest: fill the cell's span backwards
		// so the refs land in insertion order.
		j := end
		for node := c.cons; node != nil; node = node.prev {
			j--
			refs[j] = sc.ref(node.con, basePlanes)
		}
		refOff[nBase+i+1] = uint32(end)
		vertOff[nBase+i+1] = vertOff[nBase+i] + uint32(len(c.verts))
	}

	nPlanes := basePlanes + len(sc.planes)
	floats := make([]float64, nPlanes*(d+2)+nVerts*d)
	p := Pack{
		dim:     d,
		normals: floats[: nPlanes*d : nPlanes*d],
		shape:   floats[nPlanes*d : nPlanes*(d+2) : nPlanes*(d+2)],
		refs:    refs,
		refOff:  refOff,
		vertOff: vertOff,
		verts:   floats[nPlanes*(d+2):],
	}
	v := 0
	if base != nil {
		copy(p.normals, base.normals)
		copy(p.shape, base.shape)
		v = copy(p.verts, base.verts)
	}
	for k, h := range sc.planes {
		j := basePlanes + k
		copy(p.normals[j*d:(j+1)*d], h.Normal)
		p.shape[2*j], p.shape[2*j+1] = h.tangentNorm, h.offsetMean
	}
	for _, c := range cells {
		for _, vx := range c.verts {
			v += copy(p.verts[v:], vx.pt)
		}
	}
	clear(sc.seen)
	clear(sc.planes)
	sc.planes = sc.planes[:0]
	packPool.Put(sc)
	return p
}

// ref returns the pack ref of con, numbering its plane on first sight.
func (sc *packScratch) ref(con Constraint, basePlanes int) Ref {
	key := &con.H.Normal[0]
	j, ok := sc.seen[key]
	if !ok {
		j = uint32(basePlanes + len(sc.planes))
		sc.seen[key] = j
		sc.planes = append(sc.planes, con.H)
	}
	r := Ref(j) << 1
	if con.Sign < 0 {
		r |= 1
	}
	return r
}

// Dim returns the ambient dimension d.
func (p *Pack) Dim() int { return p.dim }

// NumCells returns the number of packed cells; a nil pack has none.
func (p *Pack) NumCells() int {
	if p == nil || len(p.refOff) == 0 {
		return 0
	}
	return len(p.refOff) - 1
}

// NumPlanes returns the number of distinct planes the cells are cut by.
func (p *Pack) NumPlanes() int {
	if p == nil || p.dim == 0 {
		return 0
	}
	return len(p.normals) / p.dim
}

// Normal returns plane j's unit normal. It aliases the pack and must not
// be modified.
func (p *Pack) Normal(j int) vec.Vec {
	return vec.Vec(p.normals[j*p.dim : (j+1)*p.dim : (j+1)*p.dim])
}

// Refs returns cell i's constraint refs in insertion order. The slice
// aliases the pack and must not be modified.
func (p *Pack) Refs(i int) []Ref { return p.refs[p.refOff[i]:p.refOff[i+1]] }

// VisitConstraints calls fn on each cut constraint of cell i, in insertion
// order, without allocating. A constraint's plane has its pack plane
// number as ID, and its normal aliases the pack and must not be modified.
func (p *Pack) VisitConstraints(i int, fn func(Constraint)) {
	for _, r := range p.Refs(i) {
		j := r.Plane()
		n := p.Normal(j)
		h := Hyperplane{Normal: n, ID: j, tangentNorm: p.shape[2*j], offsetMean: p.shape[2*j+1], unit: n}
		fn(Constraint{H: h, Sign: r.Sign()})
	}
}

// NumVertices returns the number of maintained extreme points of cell i.
func (p *Pack) NumVertices(i int) int { return int(p.vertOff[i+1] - p.vertOff[i]) }

// Vertices returns cell i's vertex coordinates, stride Dim, in the cell's
// maintained order. The slice aliases the pack and must not be modified.
func (p *Pack) Vertices(i int) []float64 {
	return p.verts[int(p.vertOff[i])*p.dim : int(p.vertOff[i+1])*p.dim]
}

// Center returns a new vector holding the barycenter of cell i's extreme
// points — the point Cell.Center returns, summed in the same order. It
// panics on a cell with no vertices.
func (p *Pack) Center(i int) vec.Vec {
	n := p.NumVertices(i)
	if n == 0 {
		panic("geom: cell with no vertices")
	}
	ctr := vec.New(p.dim)
	vs := p.Vertices(i)
	for k, x := range vs {
		ctr[k%p.dim] += x
	}
	for j := range ctr {
		ctr[j] /= float64(n)
	}
	return ctr
}

// CellContains reports whether u (assumed on the simplex) satisfies every
// cut constraint of cell i, boundary inclusive — Cell.Contains on the
// packed cell, newest constraint first as the cell walks its chain.
func (p *Pack) CellContains(i int, u vec.Vec) bool {
	refs := p.Refs(i)
	for k := len(refs) - 1; k >= 0; k-- {
		r := refs[k]
		if !(float64(r.Sign())*u.Dot(p.Normal(r.Plane())) >= -Tol) {
			return false
		}
	}
	return true
}

// Contains reports whether some packed cell contains u.
func (p *Pack) Contains(u vec.Vec) bool {
	for i := 0; i < p.NumCells(); i++ {
		if p.CellContains(i, u) {
			return true
		}
	}
	return false
}

// Measure estimates the fraction of the utility simplex covered by the
// union of the cells, by Monte-Carlo sampling n uniform simplex points from
// rng. Cells may overlap; overlapping area is counted once.
func (p *Pack) Measure(rng *rand.Rand, n int) float64 {
	if p.NumCells() == 0 || n <= 0 {
		return 0
	}
	hit := 0
	for i := 0; i < n; i++ {
		if p.Contains(vec.RandSimplex(rng, p.dim)) {
			hit++
		}
	}
	return float64(hit) / float64(n)
}

// MeasureExact3D sums Area3D over the cells, clamped to 1. Callers must
// guarantee the cells are disjoint (true for the partitions produced by
// the exact solvers).
func (p *Pack) MeasureExact3D() float64 {
	var s float64
	for i := 0; i < p.NumCells(); i++ {
		s += p.Area3D(i)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// Orthonormal basis of the tangent space of the 3-d simplex's plane.
var (
	area3DE1 = vec.Of(1, -1, 0).Unit()
	area3DE2 = vec.Of(1, 1, -2).Unit()
)

// Area3D computes, for cell i of a 3-d pack (a convex polygon embedded in
// the plane u1+u2+u3 = 1), its area relative to the whole simplex
// triangle. The polygon's maintained extreme points are ordered by angle
// around the barycenter inside the plane and fan-triangulated; extra
// non-extreme points kept by degenerate cuts are harmless because they lie
// on the hull. It panics when the pack dimension is not 3.
func (p *Pack) Area3D(i int) float64 {
	if p.dim != 3 {
		panic("geom: Area3D on non-3d cell")
	}
	n := p.NumVertices(i)
	if n < 3 {
		return 0
	}
	ctr := p.Center(i)
	type pt struct {
		x, y, ang float64
	}
	ps := make([]pt, n)
	vs := p.Vertices(i)
	for k := range ps {
		d := vec.Vec(vs[3*k : 3*k+3]).Sub(ctr)
		x, y := d.Dot(area3DE1), d.Dot(area3DE2)
		ps[k] = pt{x, y, math.Atan2(y, x)}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].ang < ps[b].ang })
	var area float64
	for k := range ps {
		j := (k + 1) % len(ps)
		area += ps[k].x*ps[j].y - ps[j].x*ps[k].y
	}
	area = math.Abs(area) / 2
	// The whole simplex triangle has side √2: area = √3/2.
	return area / (math.Sqrt(3) / 2)
}

// Interval1D returns, for cell i of a 2-d pack, the parameter interval
// [lo, hi] it occupies on the utility segment u = (t, 1−t), t ∈ [0, 1].
// It panics when the pack dimension is not 2.
func (p *Pack) Interval1D(i int) (lo, hi float64) {
	if p.dim != 2 {
		panic("geom: Interval1D on non-2d cell")
	}
	lo, hi = 1, 0
	vs := p.Vertices(i)
	for k := 0; k < len(vs); k += 2 {
		t := vs[k]
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return lo, hi
}

// SamplePoint returns a random point inside cell i: a random convex
// combination of its extreme points, drawn as Cell.SamplePoint draws it.
func (p *Pack) SamplePoint(i int, rng *rand.Rand) vec.Vec {
	n := p.NumVertices(i)
	w := vec.RandSimplex(rng, n)
	pt := vec.New(p.dim)
	vs := p.Vertices(i)
	for k := 0; k < n; k++ {
		for j, x := range vs[k*p.dim : (k+1)*p.dim] {
			pt[j] += w[k] * x
		}
	}
	return pt
}
