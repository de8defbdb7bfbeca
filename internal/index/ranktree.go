package index

import (
	"context"
	"fmt"

	"rrq/internal/core"
	"rrq/internal/geom"
	"rrq/internal/obs"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// RankTree is the rank-level tree generalized from the PBA+ (T-LevelIndex)
// baseline: a tree over the utility space in which every node at depth i
// stores a partition together with the point that ranks i-th on it. Built
// once per snapshot (to kmax levels), it answers any (q, k ≤ kmax, ε)
// query by a top-down search that never touches the dataset again.
// Materializing the rank arrangement level by level is the expensive
// preprocessing the paper reports (>10⁴ seconds at scale); the MaxNodes
// budget makes that explosion explicit instead of silent.
//
// The baseline package's PBAIndex delegates here; the index snapshot holds
// a second instance under its own metric prefix. prefix parameterizes the
// phase-timer and counter names ("pba" keeps the baseline's historical
// names, "index.ranktree" labels snapshot-served queries), so
// index-vs-rebuild comparisons line up in one registry.
type RankTree struct {
	dim    int
	kmax   int
	pts    []vec.Vec
	root   *rtNode
	nextID int
	prefix string

	// Nodes is the number of tree nodes materialized.
	Nodes int
	// Clips counts hyper-plane clip operations during preprocessing, the
	// dominant cost unit; it is budgeted alongside Nodes.
	Clips    int
	maxClips int
	check    *core.CtxChecker
}

type rtNode struct {
	cell     *geom.Cell
	point    int // index into pts of the point ranked at this depth; -1 at root
	depth    int
	children []*rtNode
}

// ErrTreeBudget is returned when rank-tree preprocessing exceeds its node
// budget — the analogue of the paper omitting PBA+ results past 10⁴
// seconds.
var ErrTreeBudget = fmt.Errorf("index: rank-tree preprocessing exceeded its node budget")

// maxTreeVerts bounds the maintained vertex count of any cell during
// preprocessing; beyond it, clip cost grows quadratically out of any
// budget's reach.
const maxTreeVerts = 5000

// BuildRankTree preprocesses pts into a rank-level tree supporting queries
// with k ≤ kmax. Points outside the kmax-skyband can never appear in any
// top-kmax result and are pruned first. maxNodes caps materialization
// (0 = 200000). A passed deadline aborts with core.ErrDeadline,
// cancellation with ctx.Err(), both observed with an amortized check per
// preprocessing clip. prefix names the phase timers and counters.
func BuildRankTree(ctx context.Context, pts []vec.Vec, kmax, maxNodes int, prefix string) (*RankTree, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("index: empty dataset")
	}
	d := pts[0].Dim()
	if d < 2 {
		return nil, fmt.Errorf("index: dimension %d < 2", d)
	}
	if kmax < 1 {
		return nil, fmt.Errorf("index: kmax %d < 1", kmax)
	}
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	band := skyband.KSkyband(pts, kmax)
	t := &RankTree{
		dim:      d,
		kmax:     kmax,
		pts:      skyband.Select(pts, band),
		prefix:   prefix,
		maxClips: 50 * maxNodes,
		check:    core.NewCtxChecker(ctx, 0x1ff),
	}
	t.root = &rtNode{cell: geom.NewSimplex(d), point: -1}
	t.Nodes = 1
	remaining := make([]int, len(t.pts))
	for i := range remaining {
		remaining[i] = i
	}
	buildPhase := t.check.Phase("phase." + prefix + ".build")
	if err := t.build(t.root, remaining, maxNodes); err != nil {
		return nil, err
	}
	buildPhase()
	return t, nil
}

// Kmax returns the highest rank the tree answers.
func (t *RankTree) Kmax() int { return t.kmax }

// build expands node n by the argmax decomposition over remaining: one
// child per point that ranks first somewhere inside n.cell.
func (t *RankTree) build(n *rtNode, remaining []int, maxNodes int) error {
	if n.depth == t.kmax || len(remaining) == 0 {
		return nil
	}
	// Only skyline points of the remaining set can rank first anywhere.
	// The skyline scan is real preprocessing work; charge it to the budget
	// so that huge instances fail fast instead of thrashing.
	t.Clips += len(remaining)
	if t.Clips > t.maxClips {
		return ErrTreeBudget
	}
	if t.check.Stop() {
		return t.check.Err()
	}
	cands := localSkyline(t.pts, remaining)
	for _, p := range cands {
		cell := n.cell
		dead := false
		for _, other := range remaining {
			if other == p {
				continue
			}
			w := t.pts[p].Sub(t.pts[other])
			if w.Norm() < vec.Eps {
				// Exact duplicate: the smaller index represents the tie.
				if other < p {
					dead = true
					break
				}
				continue
			}
			t.nextID++
			t.Clips++
			if t.Clips > t.maxClips {
				return ErrTreeBudget
			}
			if t.check.Stop() {
				return t.check.Err()
			}
			h := geom.NewHyperplane(w, t.nextID)
			cell = cell.Clip(h, +1)
			if cell == nil {
				dead = true
				break
			}
			// Near-parallel rank planes can make the maintained vertex
			// superset explode (see geom.Cell); a cell that large makes a
			// single further clip slower than any time budget, so treat it
			// as the preprocessing blow-up it is.
			if cell.NumVertices() > maxTreeVerts {
				return ErrTreeBudget
			}
		}
		if dead {
			continue
		}
		// Queries read the node's cell from many goroutines; fill its
		// lazily computed spheres now, while the tree is still private.
		cell.Center()
		child := &rtNode{cell: cell, point: p, depth: n.depth + 1}
		t.check.Emit(obs.EvNodeSplit, 1)
		t.Nodes++
		if t.Nodes > maxNodes {
			return ErrTreeBudget
		}
		n.children = append(n.children, child)
		if err := t.build(child, without(remaining, p), maxNodes); err != nil {
			return err
		}
	}
	return nil
}

// localSkyline returns the members of idx whose points are not dominated by
// another member, via the sort-based skyline of the skyband package.
func localSkyline(pts []vec.Vec, idx []int) []int {
	sub := make([]vec.Vec, len(idx))
	for i, j := range idx {
		sub[i] = pts[j]
	}
	sky := skyband.Skyline(sub)
	out := make([]int, len(sky))
	for i, s := range sky {
		out[i] = idx[s]
	}
	return out
}

func without(xs []int, x int) []int {
	out := make([]int, 0, len(xs)-1)
	for _, v := range xs {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// QueryContext answers an RRQ with the prebuilt tree: a top-down search
// that compares the query point against each partition's ranked point. A
// partition already dominated by q at some level is returned whole without
// refinement (which is why the tree gets faster as ε grows); at depth k
// the partition is clipped by h_{q,p_k}.
//
// Observability: a trace hook attached to ctx receives a plane-built event
// for the h_{q,p} planes the search constructs and a piece-emitted event
// for the answer; a metrics registry times the search phase and maintains
// <prefix>.queries, <prefix>.nodes_visited and <prefix>.planes_built
// counters, so index-served and rebuilt-per-query paths compare directly
// in one -metrics dump.
func (t *RankTree) QueryContext(ctx context.Context, q core.Query) (*core.Region, error) {
	if err := q.Validate(t.dim); err != nil {
		return nil, err
	}
	if q.K > t.kmax {
		return nil, fmt.Errorf("index: query k=%d exceeds rank-tree kmax=%d", q.K, t.kmax)
	}
	check := core.NewCtxChecker(ctx, 0x3ff)
	reg := obs.RegistryFrom(ctx)
	if reg != nil {
		reg.Counter(t.prefix + ".queries").Inc()
	}
	if q.K > len(t.pts) {
		// Fewer points than k: every utility vector qualifies.
		check.Emit(obs.EvPieceEmitted, 1)
		return core.NewCellRegion(t.dim, []*geom.Cell{geom.NewSimplex(t.dim)}), nil
	}
	searchPhase := check.Phase("phase." + t.prefix + ".search")
	var cells []*geom.Cell
	visited, planesBuilt := 0, 0
	t.search(t.root, q, &cells, &visited, &planesBuilt)
	searchPhase()
	if reg != nil {
		reg.Counter(t.prefix + ".nodes_visited").Add(int64(visited))
		reg.Counter(t.prefix + ".planes_built").Add(int64(planesBuilt))
	}
	check.Emit(obs.EvPlaneBuilt, planesBuilt)
	check.Emit(obs.EvPieceEmitted, len(cells))
	if len(cells) == 0 {
		return core.EmptyRegion(t.dim), nil
	}
	return core.NewDisjointCellRegion(t.dim, cells), nil
}

func (t *RankTree) search(n *rtNode, q core.Query, out *[]*geom.Cell, visited, planesBuilt *int) {
	*visited++
	if n.point >= 0 {
		w := q.Q.AddScaled(-(1 - q.Eps), t.pts[n.point])
		if w.Norm() < vec.Eps {
			// q sits exactly on the scaled point: boundary, treat as
			// qualified at this level and keep descending to level k.
			if n.depth == q.K {
				*out = append(*out, n.cell)
				return
			}
		} else {
			*planesBuilt++
			h := geom.NewHyperplane(w, 1<<30+n.point)
			rel := n.cell.Relation(h)
			if rel == geom.RelPos {
				// q beats this level's point everywhere on the cell, so it
				// beats every deeper level too: accept without refinement.
				*out = append(*out, n.cell)
				return
			}
			if n.depth == q.K {
				switch rel {
				case geom.RelNeg:
					return
				default:
					if c := n.cell.Clip(h, +1); c != nil {
						*out = append(*out, c)
					}
					return
				}
			}
		}
	}
	for _, c := range n.children {
		t.search(c, q, out, visited, planesBuilt)
	}
}
