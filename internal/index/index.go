// Package index implements the served reverse-regret-query index: an
// immutable, version-stamped snapshot of a dataset together with the
// preprocessing every query used to rebuild from scratch — the exact
// dominator counts that answer any k-skyband prefilter, a deduplicated
// store of classified plane sets shared across queries, and the rank-level
// tree generalized from the PBA+ baseline.
//
// Mutations follow a copy-on-write epoch discipline: Insert and Delete
// build the next snapshot beside the current one and publish it with a
// single atomic pointer swap, so concurrent readers keep serving the epoch
// they loaded, race-free, for as long as they hold it. The k-skyband is
// maintained by delta: a snapshot stores the exact number of dominators of
// every point (not a count capped at some k), so an insertion only scans
// the new point against the dataset and a deletion only decrements the
// counts of the points the removed one dominated — membership in any
// k-skyband then is one comparison per point. Per-query derived state
// (plane sets, rank tree) is invalidated lazily: a new epoch simply starts
// with empty caches and rebuilds entries on first use.
//
// This package absorbs and retires core.Dynamic: where Dynamic re-ran the
// full arrangement walk after a deletion, an index snapshot re-serves the
// query through the maintained prefilter and shared plane storage, and any
// number of standing queries amortize the same maintenance work.
package index

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rrq/internal/core"
	"rrq/internal/obs"
	"rrq/internal/skyband"
	"rrq/internal/vec"
	"rrq/internal/wal"
)

// DefaultKmax is the rank ceiling of the snapshot rank tree when Options
// leaves it zero. Queries with larger k still work — the exact dominator
// counts answer any k-skyband — they just cannot be served by the tree.
const DefaultKmax = 8

// Options configures an index build.
type Options struct {
	// Kmax is the highest rank the snapshot rank tree supports (default
	// DefaultKmax). It does not bound Solve's k: the skyband prefilter and
	// plane storage work for any k.
	Kmax int
	// TreeNodes is the rank-tree node budget (0 = the rank-tree default).
	// The tree is built lazily on first use; a build that exceeds the
	// budget is remembered as unavailable for the snapshot's lifetime.
	TreeNodes int
}

func (o Options) withDefaults() Options {
	if o.Kmax <= 0 {
		o.Kmax = DefaultKmax
	}
	return o
}

// Index is the mutable handle over a sequence of immutable snapshots.
// Readers call Snapshot (or the convenience accessors) and never block;
// writers are serialized by a mutex and publish each new epoch atomically.
type Index struct {
	opts   Options
	pstats planeStats // plane-cache traffic across every epoch

	mu   sync.Mutex // serializes Insert/Delete
	snap atomic.Pointer[Snapshot]

	// dur, once attached by OpenDurable, write-ahead-logs every mutation
	// before its epoch is published and checkpoints on a record cadence.
	dur *Durable
}

// planeStats is the index-lifetime plane-cache traffic, shared by every
// snapshot of one index so Stats survives epoch succession.
type planeStats struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// Stats is a read-only introspection snapshot of an index: the current
// epoch and dataset shape, the lifetime plane-cache traffic, and the
// current snapshot's materialized derived state. It is what callers get
// without wiring a metrics registry.
type Stats struct {
	// Version is the current epoch number.
	Version uint64
	// Points is the current dataset size, Dim its dimension.
	Points int
	Dim    int
	// Kmax is the rank ceiling of the snapshot rank trees.
	Kmax int
	// PlaneHits / PlaneMisses count shared-plane-storage traffic over the
	// index's lifetime (across every epoch).
	PlaneHits, PlaneMisses int64
	// PlaneSets is the number of classified plane sets cached by the
	// current snapshot, SkybandViews its memoized k-band views.
	PlaneSets    int
	SkybandViews int
	// RankTreeNodes is the node count of the current snapshot's rank-level
	// tree; zero when the tree has not been built (it is lazy) or its build
	// failed. RankTreeBuilt distinguishes "not yet demanded" from "built".
	RankTreeNodes int
	RankTreeBuilt bool
}

// Stats returns the index's current introspection snapshot. It is
// read-only and safe for concurrent use; derived state is reported as-is,
// never forced (a lazy rank tree that was never demanded shows zero
// nodes).
func (ix *Index) Stats() Stats {
	s := ix.snap.Load()
	st := Stats{
		Version:     s.version,
		Points:      len(s.pts),
		Dim:         s.dim,
		Kmax:        s.opts.Kmax,
		PlaneHits:   ix.pstats.hits.Load(),
		PlaneMisses: ix.pstats.misses.Load(),
	}
	s.mu.Lock()
	st.PlaneSets = len(s.planes)
	st.SkybandViews = len(s.bands)
	s.mu.Unlock()
	s.treeMu.Lock()
	if s.treeDone && s.treeErr == nil && s.tree != nil {
		st.RankTreeNodes = s.tree.Nodes
		st.RankTreeBuilt = true
	}
	s.treeMu.Unlock()
	return st
}

// Snapshot is one immutable epoch: the validated points, their exact
// dominator counts, and lazily materialized derived state (per-k skyband
// views, classified plane sets, the rank tree). All lazily built state is
// internally synchronized, so one snapshot serves any number of concurrent
// queries.
type Snapshot struct {
	version uint64
	dim     int
	opts    Options
	pts     []vec.Vec   // immutable
	dom     []int       // exact dominator count per point; immutable
	pstats  *planeStats // owning index's lifetime plane-cache counters

	mu          sync.Mutex
	bands       map[int][]vec.Vec
	planes      map[string]core.PlaneSet
	planesTotal int // crossing-plane capacity held by planes

	treeMu   sync.Mutex
	tree     *RankTree
	treeErr  error
	treeDone bool
}

// maxPlaneCache and maxPlaneCachePlanes bound the per-snapshot plane
// store, in sets and in crossing planes (about 100 bytes each at d = 3);
// queries beyond either bound build planes without caching (the region is
// unaffected). Queries decided by their base count never reach the store,
// so it holds only competitive queries' sets. A hit on one saves a plane
// build, but the tree search that follows costs far more, while 1024 such
// sets of a 3-d Zipf read mix held 38 MB: the plane bound keeps the store
// small.
const (
	maxPlaneCache       = 1024
	maxPlaneCachePlanes = 1 << 16
)

// Build validates pts and constructs the first epoch. The points are
// copied; the caller keeps ownership of its slice.
func Build(pts []vec.Vec, dim int, opts Options) (*Index, error) {
	if dim < 2 {
		return nil, fmt.Errorf("index: dimension %d < 2", dim)
	}
	opts = opts.withDefaults()
	cl := make([]vec.Vec, len(pts))
	for i, p := range pts {
		if err := core.CheckPoint(i, p, dim); err != nil {
			return nil, err
		}
		cl[i] = p.Clone()
	}
	ix := &Index{opts: opts}
	ix.snap.Store(newSnapshot(1, dim, opts, cl, skyband.DominatorCounts(cl), &ix.pstats))
	return ix, nil
}

func newSnapshot(version uint64, dim int, opts Options, pts []vec.Vec, dom []int, pstats *planeStats) *Snapshot {
	return &Snapshot{version: version, dim: dim, opts: opts, pts: pts, dom: dom, pstats: pstats}
}

// Snapshot returns the current epoch. The returned value stays valid (and
// immutable) regardless of later mutations.
func (ix *Index) Snapshot() *Snapshot { return ix.snap.Load() }

// Version returns the current epoch number (1 after Build, +1 per
// mutation).
func (ix *Index) Version() uint64 { return ix.snap.Load().version }

// Dim returns the dataset dimension.
func (ix *Index) Dim() int { return ix.snap.Load().dim }

// Len returns the current dataset size.
func (ix *Index) Len() int { return len(ix.snap.Load().pts) }

// Kmax returns the rank ceiling of the snapshot rank trees.
func (ix *Index) Kmax() int { return ix.opts.Kmax }

// Insert validates p and publishes a new epoch containing it. The dominator
// counts are maintained by delta: one scan of the dataset classifies p and
// bumps the counts of the points p dominates. Returns the new version.
func (ix *Index) Insert(p vec.Vec) (uint64, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	old := ix.snap.Load()
	if err := core.CheckPoint(len(old.pts), p, old.dim); err != nil {
		return old.version, err
	}
	n := len(old.pts)
	pts := make([]vec.Vec, n+1)
	copy(pts, old.pts)
	pts[n] = p.Clone()
	dom := make([]int, n+1)
	copy(dom, old.dom)
	for i, x := range old.pts {
		if skyband.Dominates(x, p) {
			dom[n]++
		}
		if skyband.Dominates(p, x) {
			dom[i]++
		}
	}
	next := newSnapshot(old.version+1, old.dim, old.opts, pts, dom, old.pstats)
	if ix.dur != nil {
		if err := ix.dur.logAppend(wal.Record{Epoch: next.version, Op: wal.OpInsert, Point: pts[n]}); err != nil {
			return old.version, fmt.Errorf("index: insert not logged, mutation rejected: %w", err)
		}
	}
	ix.snap.Store(next)
	if ix.dur != nil {
		ix.dur.committed(next.version)
	}
	return next.version, nil
}

// Delete removes the point at index i (in insertion order) and publishes a
// new epoch. Only the counts of points the removed one dominated change —
// this is the delta that lets deletions keep serving instead of triggering
// the from-scratch rebuild core.Dynamic needed.
func (ix *Index) Delete(i int) (uint64, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	old := ix.snap.Load()
	if i < 0 || i >= len(old.pts) {
		return old.version, fmt.Errorf("index: delete index %d out of range [0,%d)", i, len(old.pts))
	}
	rm := old.pts[i]
	pts := make([]vec.Vec, 0, len(old.pts)-1)
	dom := make([]int, 0, len(old.pts)-1)
	for j, x := range old.pts {
		if j == i {
			continue
		}
		c := old.dom[j]
		if skyband.Dominates(rm, x) {
			c--
		}
		pts = append(pts, x)
		dom = append(dom, c)
	}
	next := newSnapshot(old.version+1, old.dim, old.opts, pts, dom, old.pstats)
	if ix.dur != nil {
		if err := ix.dur.logAppend(wal.Record{Epoch: next.version, Op: wal.OpDelete, Index: i}); err != nil {
			return old.version, fmt.Errorf("index: delete not logged, mutation rejected: %w", err)
		}
	}
	ix.snap.Store(next)
	if ix.dur != nil {
		ix.dur.committed(next.version)
	}
	return next.version, nil
}

// Version returns the snapshot's epoch number.
func (s *Snapshot) Version() uint64 { return s.version }

// Dim returns the dataset dimension.
func (s *Snapshot) Dim() int { return s.dim }

// Len returns the snapshot's dataset size.
func (s *Snapshot) Len() int { return len(s.pts) }

// Points returns the snapshot's point set (shared, read-only).
func (s *Snapshot) Points() []vec.Vec { return s.pts }

// DominatorCounts returns the exact per-point dominator counts (shared,
// read-only).
func (s *Snapshot) DominatorCounts() []int { return s.dom }

// PointsFor returns the k-skyband view of the snapshot: the points
// dominated by fewer than k others, in input order — exactly the set and
// order skyband.Select(pts, skyband.KSkyband(pts, k)) produces, but served
// in one comparison per point from the maintained counts. Views are
// memoized per k. k < 1 returns the full set, matching core.Prepared.
func (s *Snapshot) PointsFor(k int) []vec.Vec {
	if k < 1 {
		return s.pts
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.bands[k]; ok {
		return b
	}
	b := make([]vec.Vec, 0, len(s.pts))
	for i, c := range s.dom {
		if c < k {
			b = append(b, s.pts[i])
		}
	}
	if s.bands == nil {
		s.bands = make(map[int][]vec.Vec)
	}
	s.bands[k] = b
	return b
}

// Prepared wraps the snapshot as a core.Prepared: solvers draw their point
// sets from the maintained skyband and their classified plane sets from
// the snapshot's deduplicated storage, keyed by the canonical Query.Key.
// reg, when non-nil, receives index.planes.hit / index.planes.miss
// counters; the snapshot's shared lifetime counters (Index.Stats) are
// maintained unconditionally.
func (s *Snapshot) Prepared(reg *obs.Registry) *core.Prepared {
	src := func(pts []vec.Vec, q core.Query) core.PlaneSet { return s.planesFor(reg, pts, q) }
	return core.PrepareIndexed(s.pts, s.dim, s.PointsFor, src)
}

// planesFor serves q's classified plane set from the snapshot's store,
// building it over pts and storing it (within the store's bounds) on a
// miss.
func (s *Snapshot) planesFor(reg *obs.Registry, pts []vec.Vec, q core.Query) core.PlaneSet {
	key := q.Key()
	s.mu.Lock()
	ps, ok := s.planes[key]
	s.mu.Unlock()
	if ok {
		s.pstats.hits.Add(1)
		if reg != nil {
			reg.Counter("index.planes.hit").Inc()
		}
		return ps
	}
	ps = core.BuildPlanes(pts, q)
	s.mu.Lock()
	if s.planes == nil {
		s.planes = make(map[string]core.PlaneSet)
	}
	if _, dup := s.planes[key]; !dup && len(s.planes) < maxPlaneCache && s.planesTotal+cap(ps.Crossing) <= maxPlaneCachePlanes {
		s.planes[key] = ps
		s.planesTotal += cap(ps.Crossing)
	}
	s.mu.Unlock()
	s.pstats.misses.Add(1)
	if reg != nil {
		reg.Counter("index.planes.miss").Inc()
	}
	return ps
}

// Tree returns the snapshot's rank-level tree, building it on first use
// (over the kmax-skyband, under the configured node budget). A build that
// exceeds its budget is memoized as unavailable for the snapshot — the
// caller should serve through the ordinary solvers instead. A build
// aborted by ctx is not memoized, so a later call may retry.
func (s *Snapshot) Tree(ctx context.Context) (*RankTree, error) {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	if s.treeDone {
		return s.tree, s.treeErr
	}
	if len(s.pts) == 0 {
		s.treeDone = true
		s.treeErr = fmt.Errorf("index: empty dataset has no rank tree")
		return nil, s.treeErr
	}
	t, err := BuildRankTree(ctx, s.PointsFor(s.opts.Kmax), s.opts.Kmax, s.opts.TreeNodes, "index.ranktree")
	if err != nil && (ctx.Err() != nil || err == core.ErrDeadline) {
		return nil, err // transient: do not memoize a canceled build
	}
	s.tree, s.treeErr, s.treeDone = t, err, true
	return s.tree, s.treeErr
}
