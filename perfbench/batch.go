package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"rrq"
	"rrq/internal/vec"
)

const (
	batchSets    = 64 // distinct batches, cycled through the window
	batchPoints  = 4  // competitive points per batch
	batchKmax    = 8  // each point is asked at k = 1..batchKmax
	batchRepeats = 32 // exact repeats appended to each batch
	setupLoads   = 51 // dataset loads per run; setup_s is their median
)

var batchEps = []float64{0.05, 0.1}

// batchSet is one batch of queries with their class labels.
type batchSet struct {
	queries []rrq.Query
	decided []bool
}

// makeBatches draws batchSets batches. Each holds batchPoints perturbed
// 8-skyband points that preprocessing cannot decide at k = 8, asked at
// every k ≤ 8 and each ε, plus batchRepeats exact repeats, shuffled.
func makeBatches(pts []vec.Vec, seed int64) []batchSet {
	bands := make([][]vec.Vec, batchKmax+1)
	for k := 1; k <= batchKmax; k++ {
		bands[k] = band(pts, k)
	}
	rng := rand.New(rand.NewSource(seed ^ 0xba7c))
	sets := make([]batchSet, batchSets)
	for s := range sets {
		var qs []rrq.Query
		for j := 0; j < batchPoints; j++ {
			var p rrq.Point
			for {
				p = perturb(rng, bands[batchKmax][rng.Intn(len(bands[batchKmax]))], 0.03)
				if !decidedByBase(bands[batchKmax], rrq.Query{Q: p, K: batchKmax, Epsilon: batchEps[0]}) {
					break
				}
			}
			for k := 1; k <= batchKmax; k++ {
				for _, eps := range batchEps {
					qs = append(qs, rrq.Query{Q: p, K: k, Epsilon: eps})
				}
			}
		}
		unique := len(qs)
		for j := 0; j < batchRepeats; j++ {
			qs = append(qs, qs[rng.Intn(unique)])
		}
		rng.Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
		set := batchSet{queries: qs, decided: make([]bool, len(qs))}
		for i, q := range qs {
			set.decided[i] = decidedByBase(bands[q.K], q)
		}
		sets[s] = set
	}
	return sets
}

// batchOp is one timed Prepare + SolveBatch call.
type batchOp struct {
	prep, solve time.Duration
	traced      bool
	allocs      uint64 // traced runs, untraced slices only
	bytes       uint64
}

// batchWindow is what batch-3d's window produced.
type batchWindow struct {
	dur      time.Duration
	cpu      time.Duration // process CPU time spent in the window
	ops      []batchOp
	queries  int
	deduped  int
	perQuery []float64 // solve time of every slot that ran a solve, ms
	count    [numClasses]int
	classMS  [numClasses][]float64
	searched []rrq.Stats // solver counters of the slots that searched
	phases   map[string]rrq.TimerSnapshot
	kept     map[int]*rrq.BatchReport // reports of the batches re-solved after the window
}

// record folds one recorded batch into the window.
func (w *batchWindow) record(set batchSet, rep *rrq.BatchReport, r *result) {
	w.queries += len(set.queries)
	w.deduped += rep.Deduped
	for i, res := range rep.Results {
		if res.Err != nil {
			r.fail("batch query %v: %v", set.queries[i], res.Err)
			continue
		}
		c := clsNonempty
		switch {
		case res.Dedup:
			c = clsDedup
		case set.decided[i]:
			c = clsDecided
		case res.Region.IsEmpty():
			c = clsEmpty
		}
		w.count[c]++
		if c == clsDedup {
			continue
		}
		x := ms(res.Elapsed)
		w.perQuery = append(w.perQuery, x)
		w.classMS[c] = append(w.classMS[c], x)
		if c != clsDecided {
			w.searched = append(w.searched, res.Stats)
		}
	}
	for name, t := range rep.Phases {
		acc := w.phases[name]
		acc.Count += t.Count
		acc.Total += t.Total
		w.phases[name] = acc
	}
}

// batchChecked is how many of the distinct batches are re-solved query by
// query after the window.
const batchChecked = 6

// runBatch is batch-3d: one caller running a fresh rrq.Prepare plus
// Prepared.SolveBatch (default workers) per operation, in-process.
func runBatch(e *env, r *result) error {
	path := filepath.Join(e.work, "data.csv")
	if _, err := makeData(path, 2000, 3, workloadSeed); err != nil {
		return err
	}
	// Set-up is loading the dataset; like rrqd's, it is measured as CPU
	// time, with wall time kept per layer.
	var cpu, wall []time.Duration
	var d *data
	for i := 0; i < setupLoads; i++ {
		c0, err := selfCPU()
		if err != nil {
			return err
		}
		start := time.Now()
		if d, err = loadData(path); err != nil {
			return err
		}
		wall = append(wall, time.Since(start))
		c1, err := selfCPU()
		if err != nil {
			return err
		}
		cpu = append(cpu, c1-c0)
	}
	r.set("setup_s", median(cpu).Seconds())
	r.set("setup_wall_s", median(wall).Seconds())
	r.note("setup: %d dataset loads (parse, validate, normalize); CPU median %v, wall median %v", len(wall), median(cpu), median(wall))
	sets := makeBatches(d.pts, e.seed)
	ctx := context.Background()
	w := &batchWindow{phases: map[string]rrq.TimerSnapshot{}, kept: map[int]*rrq.BatchReport{}}
	for _, s := range rand.New(rand.NewSource(e.seed ^ 0xc4ec)).Perm(batchSets)[:batchChecked] {
		w.kept[s] = nil
	}

	// one runs batch b; a recorded batch is timed and checked, and in
	// traced runs its untraced slices also count allocations.
	one := func(b int, traced, record, memStats bool) {
		set := sets[b%batchSets]
		var opts []rrq.Option
		if traced {
			opts = append(opts, rrq.WithMetrics(rrq.NewRegistry()))
		}
		var m0, m1 runtime.MemStats
		if memStats {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		p, err := rrq.Prepare(d.ds, opts...)
		if err != nil {
			panic(err) // the dataset was validated when it was loaded
		}
		t1 := time.Now()
		rep := p.SolveBatch(ctx, set.queries)
		t2 := time.Now()
		if memStats {
			runtime.ReadMemStats(&m1)
		}
		if !record {
			return
		}
		op := batchOp{prep: t1.Sub(t0), solve: t2.Sub(t1), traced: traced}
		if memStats {
			op.allocs, op.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		}
		w.ops = append(w.ops, op)
		w.record(set, rep, r)
		if _, ok := w.kept[b%batchSets]; ok {
			w.kept[b%batchSets] = rep
		}
	}

	b := 0
	for warmEnd := time.Now().Add(time.Second); time.Now().Before(warmEnd); b++ {
		one(b, false, false, false)
	}
	cpu0, err := selfCPU()
	if err != nil {
		return err
	}
	start := time.Now()
	end := start.Add(e.seconds)
	steal, err := sampleSteal(start, end)
	if err != nil {
		return err
	}
	rss := sampleRSS(0, end)
	for ; time.Now().Before(end); b++ {
		traced := e.trace && (time.Since(start)/traceSlice)%2 == 1
		one(b, traced, true, e.trace && !traced)
	}
	w.dur = time.Since(start)
	cpu1, err := selfCPU()
	if err != nil {
		return err
	}
	w.cpu = cpu1 - cpu0
	if err := rss.set(r, 0); err != nil {
		return err
	}
	if err := steal.note(r, w.dur); err != nil {
		return err
	}
	r.attempted += w.queries

	checkBatches(r, d.ds, sets, w.kept)
	analyzeBatch(e, r, w)
	return nil
}

// checkBatches re-solves the kept batches query by query with
// Prepared.Solve on a fresh Prepare; every slot, repeats included, must
// be byte-identical to the batch's answer.
func checkBatches(r *result, ds *rrq.Dataset, sets []batchSet, kept map[int]*rrq.BatchReport) {
	ctx := context.Background()
	for s, rep := range kept {
		if rep == nil {
			continue // the window ended before this batch ran
		}
		p, err := rrq.Prepare(ds)
		if err != nil {
			r.fail("check: prepare: %v", err)
			continue
		}
		for i, q := range sets[s].queries {
			got := rep.Results[i]
			if got.Err != nil {
				continue // already counted as a failed query
			}
			want, err := p.Solve(ctx, q)
			if err != nil {
				r.fail("check: batch %d query %d: independent solve: %v", s, i, err)
				continue
			}
			a, errA := got.Region.MarshalJSON()
			b, errB := want.Region.MarshalJSON()
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				r.fail("check: batch %d query %d (%v, dedup %v): batch answer differs from Prepared.Solve", s, i, q, got.Dedup)
			}
		}
	}
}

// analyzeBatch sets batch-3d's metrics.
func analyzeBatch(e *env, r *result, w *batchWindow) {
	var wall, traced, untraced, prep, solve []float64
	var allocs, allocBytes, allocQueries float64
	perBatch := float64(batchPoints*batchKmax*len(batchEps) + batchRepeats)
	for _, op := range w.ops {
		x := ms(op.prep + op.solve)
		wall = append(wall, x)
		prep = append(prep, ms(op.prep))
		solve = append(solve, ms(op.solve))
		if op.traced {
			traced = append(traced, x)
			continue
		}
		untraced = append(untraced, x)
		if op.allocs > 0 {
			allocs += float64(op.allocs)
			allocBytes += float64(op.bytes)
			allocQueries += perBatch
		}
	}
	r.set("solve_qps", float64(w.queries)/w.dur.Seconds())
	r.set("solve_p50_ms", chunked(w.perQuery, 0.5))
	// The tail is p90 here: a 1–2 ms solve's p99 measures vCPU
	// preemption and GC pauses more than the solver.
	r.set("solve_tail_ms", chunked(w.perQuery, 0.90))
	r.set("cpu_ms_per_op", frac(ms(w.cpu), float64(w.queries)))
	r.set("batch_p50_ms", quantile(wall, 0.5))
	r.set("batch.prepare_ms", mean(prep))
	r.set("batch.solve_ms", mean(solve))
	r.set("batch.dedup_frac", frac(float64(w.deduped), float64(w.queries)))
	r.set("batch.allocs_per_query", frac(allocs, allocQueries))
	r.set("batch.bytes_per_query", frac(allocBytes, allocQueries))
	kept := 0
	for _, rep := range w.kept {
		if rep != nil {
			kept++
		}
	}
	r.note("window %v: %d batches, %d queries, %d solves timed; per-query p99 %.3f ms; batch wall p50 %.3f ms; %d batches re-solved query by query",
		w.dur.Round(time.Millisecond), len(w.ops), w.queries, len(w.perQuery), chunked(w.perQuery, 0.99), quantile(wall, 0.5), kept)

	r.attempted++
	if w.count[clsNonempty] == 0 {
		r.fail("workload mix: batch-3d expected non-empty answers (mix %v)", w.count)
	}
	mix := ""
	for c := clsDecided; c <= clsDedup; c++ {
		mix += fmt.Sprintf(" %s %d (%.1f%%)", classNames[c], w.count[c], 100*frac(float64(w.count[c]), float64(w.queries)))
	}
	r.note("class mix:%s", mix)
	solved := float64(w.count[clsDecided] + w.count[clsEmpty] + w.count[clsNonempty])
	r.set("core.decided_frac", frac(float64(w.count[clsDecided]), solved))
	r.set("core.empty_frac", frac(float64(w.count[clsEmpty]), solved))
	r.set("core.nonempty_frac", frac(float64(w.count[clsNonempty]), solved))
	r.set("core.decided_ms", quantile(w.classMS[clsDecided], 0.5))
	r.set("core.nonempty_ms", quantile(w.classMS[clsNonempty], 0.5))
	r.set("decided_miss_p50_ms", quantile(w.classMS[clsDecided], 0.5))
	r.set("decided_miss_n", float64(w.count[clsDecided]))
	r.set("nonempty_miss_p50_ms", quantile(w.classMS[clsNonempty], 0.5))
	r.set("nonempty_miss_n", float64(w.count[clsNonempty]))
	setEPTPhases(r, func(name string) (float64, int64) {
		t := w.phases[name]
		return float64(t.Total), t.Count
	})
	setEPTStats(r, w.searched)

	if e.trace {
		pu, pt := quantile(untraced, 0.5), quantile(traced, 0.5)
		r.set("trace.overhead_frac", frac(pt-pu, pu))
		r.note("traced slices batch p50 %.4f ms (n %d) vs untraced %.4f ms (n %d)", pt, len(traced), pu, len(untraced))
	}
}
