package core

import (
	"math"
	"sort"
	"sync"

	"rrq/internal/geom"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// maxShareGroups bounds the number of distinct (query point, ε) plane
// groups a batch view will materialize; queries beyond the cap fall back to
// per-solve plane construction instead of growing the store without bound.
const maxShareGroups = 1024

// shareFor returns a Prepared view that amortizes work across the queries
// of one batch: a single capped dominator count at the batch's maximum k
// serves every skyband prefilter, and classified plane sets are built once
// per (query point, ε) group and narrowed to each query's k by filtering —
// producing exactly the planes, classifications and IDs a fresh
// BuildPlanes over that query's own k-skyband would produce, so regions
// stay byte-identical to independent solves.
//
// An index-backed Prepared is returned unchanged: its snapshot storage
// already deduplicates bands and planes across queries (and across
// batches), which the batch view could only duplicate.
// keys is the precomputed PointKey of every query (computed once per batch;
// the strings are also reused by dedup and clustering).
func (p *Prepared) shareFor(queries []Query, keys []string) (*Prepared, *shareView) {
	if p.pointsFor != nil || p.planes != nil || len(queries) < 2 {
		return p, nil
	}
	v := &shareView{
		prep:      p,
		kmax:      1,
		bands:     make(map[int][]vec.Vec),
		groups:    make(map[shareGroupKey]*planeGroup),
		groupKmax: make(map[shareGroupKey]int),
		groupOf:   make([]*planeGroup, len(queries)),
	}
	for i, q := range queries {
		if q.K > v.kmax {
			v.kmax = q.K
		}
		gk := shareGroupKey{point: keys[i], eps: math.Float64bits(q.Eps)}
		if q.K > v.groupKmax[gk] {
			v.groupKmax[gk] = q.K
		}
	}
	// Second pass (group maxima are final now): materialize every group up
	// to the cap and record each query's assignment, so the per-solve lookup
	// is one slice index instead of a string build and map probe.
	for i, q := range queries {
		v.groupOf[i] = v.groupForKey(shareGroupKey{point: keys[i], eps: math.Float64bits(q.Eps)}, q)
	}
	return &Prepared{pts: p.pts, dim: p.dim, pointsFor: v.pointsFor, planes: v.planesFor}, v
}

// shareGroupKey identifies one plane group: all queries with bit-identical
// point coordinates and ε draw from the same classified planes, whatever
// their k.
type shareGroupKey struct {
	point string
	eps   uint64
}

// shareView is the batch-scoped sharing state behind the view Prepared.
// It is safe for concurrent use by the batch workers.
type shareView struct {
	prep *Prepared
	kmax int // max k over the batch

	countsOnce sync.Once
	counts     []int // capped band-dominator counts at kmax (prefilter only)

	mu        sync.Mutex
	bands     map[int][]vec.Vec
	groups    map[shareGroupKey]*planeGroup
	groupKmax map[shareGroupKey]int

	// groupOf maps each batch query index to its plane group (nil past the
	// group cap), precomputed so the per-solve lookup is index-based.
	groupOf []*planeGroup
}

// ensureCounts resolves the shared skyband substrate once per batch: the
// capped dominator counts at the batch's maximum k, from which every
// query's band is a single comparison per point. The counts live on the
// Prepared, so consecutive batches against one dataset reuse them instead
// of recomputing.
func (v *shareView) ensureCounts() {
	v.countsOnce.Do(func() {
		v.counts = v.prep.cappedCounts(v.kmax)
	})
}

// cappedCounts returns skyband.KSkybandCounts(pts, k), cached across
// batches: counts computed at some k' ≥ k answer every rank kk ≤ k (point
// in kk-skyband iff count < kk), so only a request past the cached rank
// recomputes, and the cache only ever deepens.
func (p *Prepared) cappedCounts(k int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.counts == nil || p.countsK < k {
		p.counts = skyband.KSkybandCounts(p.pts, k)
		p.countsK = k
	}
	return p.counts
}

// pointsFor serves the k-skyband for any k in the batch by filtering the
// shared capped counts — identical in membership and order to
// skyband.Select(pts, skyband.KSkyband(pts, k)), which is what the
// underlying Prepared would have computed per k.
func (v *shareView) pointsFor(k int) []vec.Vec {
	p := v.prep
	if !p.skyband || k < 1 {
		return p.pts
	}
	if k > v.kmax {
		// Outside the batch's range (possible only for queries the view was
		// not built from); the capped counts cannot answer it, the
		// underlying per-k cache can.
		return p.PointsFor(k)
	}
	v.ensureCounts()
	v.mu.Lock()
	defer v.mu.Unlock()
	if b, ok := v.bands[k]; ok {
		return b
	}
	b := make([]vec.Vec, 0, len(p.pts))
	for i, c := range v.counts {
		if c < k {
			b = append(b, p.pts[i])
		}
	}
	v.bands[k] = b
	return b
}

// Per-point classification categories of a plane group, mirroring
// BuildPlanes' three-way switch.
const (
	shareDrop  uint8 = iota // normal ≥ 0: never counts, no plane
	shareBase               // normal ≤ 0: folded into PlaneSet.Base
	shareCross              // mixed signs: a crossing plane
)

// planeGroup holds the classified planes of one (query point, ε) group,
// built once over the group's widest base set and narrowed to each query's
// k on demand. After build the group is immutable, so derivation needs no
// locking.
type planeGroup struct {
	q    Query // representative query (point and ε; K is the group max)
	kmax int

	once      sync.Once
	base      []vec.Vec         // the points classification ran over
	cnt       []int             // per-base capped dominator counts; nil = no prefilter
	cat       []uint8           // per-base category
	baseCount int               // number of shareBase points in base
	planes    []geom.Hyperplane // one per shareCross base point, ID = base position
}

// planesFor is the batch view's PlaneSource — the arena-less entry used by
// solvers that have not been wired for worker arenas. Derived sets are
// freshly allocated per call.
func (v *shareView) planesFor(pts []vec.Vec, q Query) PlaneSet {
	return v.planesArena(pts, q, nil)
}

// planesArena resolves the query's plane set from shared state: the group's
// base classification is built once, the query's own set is derived by
// filtering into the worker's arena (allocation-free once the arena has
// warmed up), and a query at the group's widest rank shares the group's
// plane slice outright. Queries beyond the group cap build planes directly.
func (v *shareView) planesArena(pts []vec.Vec, q Query, a *Arena) PlaneSet {
	var g *planeGroup
	if a != nil {
		// The batch dispatcher assigned this worker's arena the query's
		// precomputed group (nil past the cap) before the solve.
		g = a.group
	} else {
		g = v.group(q)
	}
	if g == nil {
		if a != nil {
			return buildPlanesArena(pts, q, a)
		}
		return BuildPlanes(pts, q)
	}
	g.once.Do(func() { g.build(v) })
	return g.deriveInto(q.K, pts, q, a)
}

// group returns (creating if needed) the plane group for q, or nil when the
// store is at capacity and q's group does not exist yet.
func (v *shareView) group(q Query) *planeGroup {
	return v.groupForKey(shareGroupKey{point: q.PointKey(), eps: math.Float64bits(q.Eps)}, q)
}

func (v *shareView) groupForKey(gk shareGroupKey, q Query) *planeGroup {
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.groups[gk]; ok {
		return g
	}
	if len(v.groups) >= maxShareGroups {
		return nil
	}
	kmax := v.groupKmax[gk]
	if q.K > kmax {
		kmax = q.K
	}
	g := &planeGroup{q: q, kmax: kmax}
	v.groups[gk] = g
	return g
}

// build classifies every point of the group's widest base set exactly as
// BuildPlanes does, keeping the per-point category and the crossing planes
// (IDs are base positions). With the prefilter on, the base set is the
// group's kmax-skyband and the capped counts are kept alongside so smaller
// k derive by filtering; with it off, the base is the full dataset and the
// classification is k-independent.
func (g *planeGroup) build(v *shareView) {
	p := v.prep
	if p.skyband {
		v.ensureCounts()
		base := make([]vec.Vec, 0, len(p.pts))
		cnt := make([]int, 0, len(p.pts))
		for i, c := range v.counts {
			if c < g.kmax {
				base = append(base, p.pts[i])
				cnt = append(cnt, c)
			}
		}
		g.base, g.cnt = base, cnt
	} else {
		g.base = p.pts
	}

	scale := 1 - g.q.Eps
	d := g.q.Q.Dim()
	g.cat = make([]uint8, len(g.base))
	crossings := 0
	for j, pt := range g.base {
		neg, pos := false, false
		for i := 0; i < d; i++ {
			x := g.q.Q[i] - scale*pt[i]
			if x > geom.Tol {
				pos = true
			} else if x < -geom.Tol {
				neg = true
			}
		}
		switch {
		case !neg:
			g.cat[j] = shareDrop
		case !pos:
			g.cat[j] = shareBase
			g.baseCount++
		default:
			g.cat[j] = shareCross
			crossings++
		}
	}

	// Second pass: materialize the crossing planes with all unit normals in
	// one flat block (stride d), sized exactly by the first pass so the
	// backing never moves under the plane headers.
	flat := make([]float64, crossings*d)
	g.planes = make([]geom.Hyperplane, 0, crossings)
	ci := 0
	for j, pt := range g.base {
		if g.cat[j] != shareCross {
			continue
		}
		slot := vec.Vec(flat[ci*d : ci*d+d : ci*d+d])
		for i := 0; i < d; i++ {
			slot[i] = g.q.Q[i] - scale*pt[i]
		}
		g.planes = append(g.planes, geom.NewHyperplaneInto(slot, slot, j))
		ci++
	}
}

// deriveInto derives the plane set for rank k from the group's base
// classification: walk the base in order, keep the members of the
// k-skyband (cnt < k), and renumber crossing-plane IDs to their position in
// that narrowed set — exactly the IDs BuildPlanes would assign over the
// query's own band. The derived headers go into the worker's arena (valid
// until its next solve, like buildPlanesArena's output); their normals
// alias the group's flat block, which every solver treats as read-only.
//
// Two ranks skip the walk entirely and share the group's own plane slice:
// k ≥ kmax with the prefilter (the narrowed band is the base itself, so the
// stored base-position IDs are already the band positions), and any k
// without the prefilter (classification is k-independent over the full
// dataset). pts is the band the solver resolved for this query; a size
// mismatch (a query the view was not built from) falls back to a direct
// build.
func (g *planeGroup) deriveInto(k int, pts []vec.Vec, q Query, a *Arena) PlaneSet {
	if g.cnt != nil && k > g.kmax {
		if a != nil {
			return buildPlanesArena(pts, q, a)
		}
		return BuildPlanes(pts, q)
	}
	if g.cnt == nil || k >= g.kmax {
		if len(g.base) == len(pts) {
			return PlaneSet{Crossing: g.planes, Base: g.baseCount}
		}
		// The solver resolved a different point set than the group's base
		// (defensive; should not happen for batch queries).
		if a != nil {
			return buildPlanesArena(pts, q, a)
		}
		return BuildPlanes(pts, q)
	}
	var crossing []geom.Hyperplane
	if a != nil {
		crossing = a.planes[:0]
	} else {
		crossing = make([]geom.Hyperplane, 0, len(g.planes))
	}
	var ps PlaneSet
	m := 0  // position within the narrowed band
	ci := 0 // crossing-plane cursor over the base
	for j := range g.base {
		if g.cnt[j] < k {
			switch g.cat[j] {
			case shareBase:
				ps.Base++
			case shareCross:
				h := g.planes[ci]
				h.ID = m
				crossing = append(crossing, h)
			}
			m++
		}
		if g.cat[j] == shareCross {
			ci++
		}
	}
	if a != nil {
		a.planes = crossing
	}
	ps.Crossing = crossing
	if m != len(pts) {
		// The solver is running on a different point set than the group
		// derived (defensive; should not happen for batch queries).
		if a != nil {
			return buildPlanesArena(pts, q, a)
		}
		return BuildPlanes(pts, q)
	}
	return ps
}

// clusterOrder sorts the batch's solve order so queries drawing on the same
// shared state run adjacently — same plane group first (point, then ε),
// then ascending k — keeping the group's base classification and the
// derived sets cache-warm on whichever worker picks the next index. Ties
// keep submission order. Results are still delivered in input order; only
// the dispatch order changes.
func clusterOrder(order []int, queries []Query, keys []string) {
	if len(order) < 2 {
		return
	}
	sort.SliceStable(order, func(a, b int) bool {
		qa, qb := queries[order[a]], queries[order[b]]
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		ea, eb := math.Float64bits(qa.Eps), math.Float64bits(qb.Eps)
		if ea != eb {
			return ea < eb
		}
		return qa.K < qb.K
	})
}
