package rrq

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

// A cache hit must return the byte-identical region of the fresh solve,
// and a mutation must invalidate it (version miss).
func TestIndexResultCacheHitAndVersionMiss(t *testing.T) {
	for _, d := range []int{2, 3} {
		ds, q := indexTestInstance(t, d, int64(300*d))
		reg := NewRegistry()
		ix, err := BuildIndex(ds, WithResultCache(16), WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}

		first, err := ix.SolveContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if first.Cache != CacheMiss {
			t.Fatalf("d=%d: first solve cache status = %v, want %v", d, first.Cache, CacheMiss)
		}
		second, err := ix.SolveContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if second.Cache != CacheHit {
			t.Fatalf("d=%d: repeat solve cache status = %v, want %v", d, second.Cache, CacheHit)
		}
		fb, _ := first.Region.MarshalJSON()
		sb, _ := second.Region.MarshalJSON()
		if !bytes.Equal(fb, sb) {
			t.Fatalf("d=%d: cache-served region differs from fresh solve\nfresh: %s\n  hit: %s", d, fb, sb)
		}
		if reg.Counter("cache.hit").Value() != 1 || reg.Counter("cache.miss").Value() != 1 {
			t.Fatalf("d=%d: counters hit=%d miss=%d, want 1/1",
				d, reg.Counter("cache.hit").Value(), reg.Counter("cache.miss").Value())
		}

		// Mutation publishes a new epoch: the old entry can never match.
		if _, err := ix.Insert(ds.PointAt(0)); err != nil {
			t.Fatal(err)
		}
		third, err := ix.SolveContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if third.Cache != CacheMiss {
			t.Fatalf("d=%d: post-insert solve cache status = %v, want %v (version miss)", d, third.Cache, CacheMiss)
		}
		st := ix.Stats()
		if st.Cache == nil {
			t.Fatal("Stats().Cache nil with WithResultCache")
		}
		if st.Cache.Entries != 1 {
			t.Fatalf("d=%d: cache entries after prune = %d, want 1", d, st.Cache.Entries)
		}
	}
}

// Bound serving: a cached tighter neighbor answers as a sound inner bound,
// a looser one as an outer bound, and the result names its source.
func TestIndexResultCacheBounds(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 777)
	ix, err := BuildIndex(ds, WithResultCache(16), WithCacheBounds(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	tight := Query{Q: q.Q, K: q.K - 1, Epsilon: q.Epsilon / 2}
	loose := Query{Q: q.Q, K: q.K + 1, Epsilon: q.Epsilon * 2}
	tres, err := ix.SolveContext(ctx, tight)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := ix.SolveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if inner.Cache != CacheInner {
		t.Fatalf("cache status = %v, want %v", inner.Cache, CacheInner)
	}
	if inner.CacheSource == nil || inner.CacheSource.K != tight.K || inner.CacheSource.Epsilon != tight.Epsilon {
		t.Fatalf("inner bound source = %+v, want %+v", inner.CacheSource, tight)
	}
	// The served region is exactly the tighter query's answer.
	ib, _ := inner.Region.MarshalJSON()
	tb, _ := tres.Region.MarshalJSON()
	if !bytes.Equal(ib, tb) {
		t.Fatal("inner-bound region is not the cached neighbor's region")
	}
	// Soundness: every sampled member of the inner bound is in the true
	// region.
	truth, err := SolveContext(ctx, ds, q, WithSkybandPrefilter(true))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		if u := inner.Region.Sample(seed); u != nil && !truth.Region.Contains(u) {
			t.Fatalf("inner bound contains non-member %v", u)
		}
	}

	// Evict the tight entry's epoch relevance by building a fresh index
	// with only the loose neighbor cached: the query then gets an outer
	// bound.
	ix2, err := BuildIndex(ds, WithResultCache(16), WithCacheBounds(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix2.SolveContext(ctx, loose); err != nil {
		t.Fatal(err)
	}
	outer, err := ix2.SolveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Cache != CacheOuter {
		t.Fatalf("cache status = %v, want %v", outer.Cache, CacheOuter)
	}
	for seed := int64(1); seed <= 20; seed++ {
		if u := truth.Region.Sample(seed); u != nil && !outer.Region.Contains(u) {
			t.Fatalf("outer bound misses true member %v", u)
		}
	}
}

// ε=0 entries (reverse top-k answers) seed inner bounds for ε>0 queries on
// the same point.
func TestIndexCacheTopKSeedsRefinement(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 555)
	ix, err := BuildIndex(ds, WithResultCache(16), WithCacheBounds(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	topk := Query{Q: q.Q, K: q.K, Epsilon: 0}
	if _, err := ix.SolveContext(ctx, topk); err != nil {
		t.Fatal(err)
	}
	res, err := ix.SolveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheInner {
		t.Fatalf("cache status = %v, want %v (ε=0 seed)", res.Cache, CacheInner)
	}
	if res.CacheSource == nil || res.CacheSource.Epsilon != 0 {
		t.Fatalf("source = %+v, want the ε=0 entry", res.CacheSource)
	}
}

// Approximate serving must bypass the cache in both directions: A-PC
// results are neither stored nor served.
func TestIndexCacheBypassesAPC(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 444)
	ix, err := BuildIndex(ds, WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := ix.SolveContext(ctx, q, WithAlgorithm(APCAlgo), WithSamples(40))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheBypass {
		t.Fatalf("A-PC cache status = %v, want %v", res.Cache, CacheBypass)
	}
	st := ix.Stats()
	if st.Cache.Entries != 0 {
		t.Fatalf("A-PC answer was cached: %d entries", st.Cache.Entries)
	}
	// An exact solve afterwards is a plain miss, not contaminated by the
	// A-PC call.
	exact, err := ix.SolveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cache != CacheMiss {
		t.Fatalf("exact solve after A-PC = %v, want %v", exact.Cache, CacheMiss)
	}
}

// Query.Key must agree exactly with equality of (Q, K, Epsilon) and
// distinguish everything else.
func TestQueryKey(t *testing.T) {
	base := Query{Q: Point{0.4, 0.7}, K: 2, Epsilon: 0.1}
	same := Query{Q: Point{0.4, 0.7}, K: 2, Epsilon: 0.1}
	if base.Key() != same.Key() {
		t.Fatal("equal queries with different keys")
	}
	variants := []Query{
		{Q: Point{0.4, 0.7}, K: 3, Epsilon: 0.1},
		{Q: Point{0.4, 0.7}, K: 2, Epsilon: 0.2},
		{Q: Point{0.4, 0.71}, K: 2, Epsilon: 0.1},
		{Q: Point{0.4, 0.7, 0.5}, K: 2, Epsilon: 0.1},
		{Q: Point{0.4}, K: 2, Epsilon: 0.1},
	}
	seen := map[string]int{base.Key(): -1}
	for i, v := range variants {
		k := v.Key()
		if j, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d", i, j)
		}
		seen[k] = i
	}
	if s := base.String(); s == "" || s == base.Key() {
		t.Fatalf("String() = %q, want a display form distinct from Key()", s)
	}
}

// A malformed query must fail with its *QueryError even when bound serving
// is on: k = 0 is ≤ every cached rank, so without up-front validation the
// cache would happily serve it an outer bound.
func TestIndexCacheRejectsInvalidQueryBeforeBoundServing(t *testing.T) {
	ds, q := indexTestInstance(t, 2, 888)
	ix, err := BuildIndex(ds, WithResultCache(16), WithCacheBounds(true))
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if _, err := ix.SolveContext(context.Background(), q); err != nil {
		t.Fatalf("seed solve: %v", err)
	}
	for _, bad := range []Query{
		{Q: q.Q, K: 0, Epsilon: q.Epsilon},
		{Q: q.Q, K: q.K, Epsilon: 1.5},
		{Q: q.Q, K: q.K, Epsilon: -0.1},
	} {
		var qe *QueryError
		if _, err := ix.SolveContext(context.Background(), bad); !errors.As(err, &qe) {
			t.Fatalf("query %+v through a cached index: err=%v, want *QueryError", bad, err)
		}
	}
}

// Exact hits keep their encoded region after the first encode and serve
// those bytes afterwards: every served body is byte-identical to the
// region's own encoding and to a fresh solve, through eviction and an
// epoch change, and the kept-byte gauge and served counter track it.
func TestIndexCacheKeptBodies(t *testing.T) {
	ds := SyntheticDataset(Independent, 40, 3, 4242)
	var qs []Query
	for seed := int64(1); len(qs) < 3 && seed < 200; seed++ {
		q := Query{Q: ds.RandomQuery(seed), K: 3, Epsilon: 0.1}
		if r, err := Solve(ds, q); err == nil && !r.IsEmpty() {
			qs = append(qs, q)
		}
	}
	if len(qs) < 3 {
		t.Fatal("precondition: want three queries with non-empty regions")
	}
	reg := NewRegistry()
	ix, err := BuildIndex(ds, WithResultCache(2), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cur := ds
	// encode solves q, checks the cache status, and returns the served
	// encoding after checking it against the region's own encoding and a
	// fresh solve on the current points.
	encode := func(q Query, want CacheStatus) []byte {
		t.Helper()
		res, err := ix.SolveContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != want {
			t.Fatalf("%v: cache %v, want %v", q, res.Cache, want)
		}
		got, err := res.Region.AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		own, _ := res.Region.inner.AppendJSON([]byte("prefix"))
		fresh, err := SolveContext(ctx, cur, q, WithSkybandPrefilter(true))
		if err != nil {
			t.Fatal(err)
		}
		fb, _ := fresh.Region.MarshalJSON()
		if !bytes.Equal(got, own) || !bytes.Equal(got[len("prefix"):], fb) {
			t.Fatalf("%v (%v): served %s\nown encoding %s\nfresh solve %s", q, want, got, own, fb)
		}
		return got
	}
	stats := func() CacheStats {
		t.Helper()
		st := *ix.Stats().Cache
		if g := reg.Gauge("cache.body_bytes").Value(); g != float64(st.BodyBytes) {
			t.Fatalf("cache.body_bytes gauge %g, stats %d", g, st.BodyBytes)
		}
		if c := reg.Counter("cache.body_served").Value(); c != st.BodyServed {
			t.Fatalf("cache.body_served counter %d, stats %d", c, st.BodyServed)
		}
		return st
	}

	// A hit nobody encodes keeps nothing.
	encode(qs[0], CacheMiss)
	if _, err := ix.SolveContext(ctx, qs[0]); err != nil {
		t.Fatal(err)
	}
	if st := stats(); st.BodyBytes != 0 {
		t.Fatalf("an unencoded hit kept %d bytes", st.BodyBytes)
	}
	first := encode(qs[0], CacheHit)
	kept := stats().BodyBytes
	if kept != int64(len(first)-len("prefix")) {
		t.Fatalf("kept %d bytes, want the %d-byte body", kept, len(first)-len("prefix"))
	}
	encode(qs[0], CacheHit)
	if st := stats(); st.BodyServed != 1 {
		t.Fatalf("body_served = %d, want 1", st.BodyServed)
	}

	// Eviction: two more entries push qs[0] out of the 2-entry cache.
	encode(qs[1], CacheMiss)
	encode(qs[2], CacheMiss)
	if st := stats(); st.BodyBytes != 0 {
		t.Fatalf("eviction left %d kept bytes", st.BodyBytes)
	}
	encode(qs[0], CacheMiss)
	encode(qs[0], CacheHit)
	encode(qs[0], CacheHit)

	// Epoch change: pruning releases the bytes; the new epoch re-keeps.
	if _, err := ix.Insert(Point{0.9, 0.9, 0.9}); err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	for i := 0; i < ds.Len(); i++ {
		rows = append(rows, ds.PointAt(i))
	}
	if cur, err = NewDataset(append(rows, []float64{0.9, 0.9, 0.9})); err != nil {
		t.Fatal(err)
	}
	if st := stats(); st.BodyBytes != 0 || st.Entries != 0 {
		t.Fatalf("after an epoch change: %+v, want no entries and no kept bytes", st)
	}
	encode(qs[0], CacheMiss)
	encode(qs[0], CacheHit)
	encode(qs[0], CacheHit)
	if st := stats(); st.BodyServed != 3 || st.BodyBytes == 0 {
		t.Fatalf("stats %+v, want 3 bodies served and one kept", st)
	}
}

// Every hit of a cached answer shares one region, so measuring it must
// only read: two hits of one 3-d query measured from two goroutines at
// once (exact 3-d measure takes each cell's barycenter) must neither race
// nor disagree with the miss that built the region.
func TestCachedRegionConcurrentMeasure(t *testing.T) {
	ds := SyntheticDataset(Independent, 40, 3, 900)
	q := Query{Q: Point{0.97, 0.9, 0.2}, K: 3, Epsilon: 0.1}
	ix, err := BuildIndex(ds, WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	var res [3]Result
	for i := range res {
		if res[i], err = ix.SolveContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if res[1].Cache != CacheHit || res[2].Cache != CacheHit {
		t.Fatalf("repeat solves served as %v, %v; want two hits", res[1].Cache, res[2].Cache)
	}
	if res[0].Region.NumPartitions() < 2 {
		t.Fatalf("region has %d partitions; test is vacuous", res[0].Region.NumPartitions())
	}
	var got [2]float64
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = res[i+1].Region.Measure(100)
		}()
	}
	wg.Wait()
	want := res[0].Region.Measure(100)
	if got[0] != want || got[1] != want {
		t.Fatalf("concurrent hits measured %v and %v, the miss %v", got[0], got[1], want)
	}
}
