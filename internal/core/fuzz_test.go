package core

// Native fuzz targets, seeded from the degenerate-input corpus shared with
// the differential harness (internal/diffcheck/corpus): coverage-led
// exploration starts from duplicate points, q = (1−ε)p boundaries,
// k-th-rank ties, ε extremes and colinear families instead of having to
// rediscover them. The seed corpus runs as part of the normal test suite;
// `go test -fuzz=FuzzSweepingVsBrute ./internal/core` explores further.

import (
	"math/rand"
	"testing"

	"rrq/internal/diffcheck/corpus"
	"rrq/internal/vec"
)

// FuzzSweepingVsBrute cross-checks the linear-time sweep against the
// quadratic reference on arbitrary corpus-decoded 2-d instances.
func FuzzSweepingVsBrute(f *testing.F) {
	for _, seed := range corpus.Seeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, ok := corpus.DecodeDim(data, 2)
		if !ok {
			return
		}
		pts, q := ins.Pts, Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
		want, err := BruteForce2D(pts, q)
		if err != nil {
			return
		}
		got, err := Sweeping(pts, q)
		if err != nil {
			t.Fatalf("Sweeping failed where brute force succeeded: %v", err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50; i++ {
			u := vec.RandSimplex(rng, 2)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if want.Contains(u) != got.Contains(u) {
				t.Fatalf("disagreement at %v (family=%s k=%d ε=%v)", u, ins.Family, q.K, q.Eps)
			}
		}
	})
}

// FuzzEPTVsCountBetter checks E-PT's exact region against the counting
// oracle on corpus-decoded instances of dimension 3 to 5: away from the
// boundary, u is in the region exactly when fewer than k points beat q
// under u.
func FuzzEPTVsCountBetter(f *testing.F) {
	for fam := byte(0); fam < corpus.NumFamilies; fam++ {
		for d := 3; d <= 5; d++ {
			// Decode reads the dimension as 2 + byte mod 5.
			f.Add(corpus.Encode(fam, d-2, 6+int(fam), 1+int(fam)%4, int(fam)+d, int64(fam)*7919+int64(d)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, ok := corpus.Decode(data)
		if d := ins.Q.Dim(); !ok || d < 3 || d > 5 {
			return
		}
		pts, q := ins.Pts, Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
		reg, err := EPT(pts, q)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for i := 0; i < 50; i++ {
			u := vec.RandSimplex(rng, q.Q.Dim())
			count, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if reg.Contains(u) != (count < q.K) {
				t.Fatalf("E-PT membership %v at %v, oracle counts %d (family=%s k=%d ε=%v)",
					reg.Contains(u), u, count, ins.Family, q.K, q.Eps)
			}
		}
	})
}

// FuzzAPCSound checks that A-PC never returns an unqualified preference on
// corpus-decoded instances of any dimension.
func FuzzAPCSound(f *testing.F) {
	for _, seed := range corpus.Seeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, ok := corpus.Decode(data)
		if !ok {
			return
		}
		pts, q := ins.Pts, Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
		d := q.Q.Dim()
		seed := int64(len(data))
		reg, err := APC(pts, q, APCOptions{Samples: 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			u := vec.RandSimplex(rng, d)
			count, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if reg.Contains(u) && count >= q.K {
				t.Fatalf("A-PC returned unqualified %v (family=%s count=%d k=%d)", u, ins.Family, count, q.K)
			}
		}
	})
}
