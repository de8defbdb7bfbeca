package diffcheck

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rrq/internal/baseline"
	"rrq/internal/core"
	"rrq/internal/diffcheck/corpus"
	"rrq/internal/vec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/region_golden.json from the current solvers")

// regionDigest fingerprints everything a served region answers with: its
// piece count, its wire bytes, the bits of a seeded measure, membership of
// seeded points and the bits of seeded sample points.
type regionDigest struct {
	Case     string `json:"case"`
	Pieces   int    `json:"pieces"`
	JSON     string `json:"json_sha256"`
	Measure  uint64 `json:"measure_bits"`
	Contains string `json:"contains"`
	Samples  string `json:"samples_sha256"`
}

func digestRegion(name string, r *core.Region, seed int64) regionDigest {
	body, err := r.AppendJSON(nil)
	if err != nil {
		body = []byte("error: " + err.Error())
	}
	sum := sha256.Sum256(body)
	rng := rand.New(rand.NewSource(seed))
	var in uint64
	for i := 0; i < 64; i++ {
		if r.Contains(vec.RandSimplex(rng, r.Dim())) {
			in |= 1 << i
		}
	}
	h := sha256.New()
	for i := 0; i < 16; i++ {
		for _, x := range r.SamplePoint(rng) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	return regionDigest{
		Case:     name,
		Pieces:   r.NumPieces(),
		JSON:     hex.EncodeToString(sum[:]),
		Measure:  math.Float64bits(r.MeasureWithSeed(seed, 1000)),
		Contains: fmt.Sprintf("%016x", in),
		Samples:  hex.EncodeToString(h.Sum(nil)),
	}
}

// packSweep answers every corpus family at d = 2..6, twice, with every
// cell-producing solver — E-PT, brute force, LP-CTA, A-PC, anytime A-PC
// warm-started from a stricter query's cut, and the rank tree within its
// dimension and budget bounds — and digests each region.
func packSweep(t *testing.T) []regionDigest {
	ctx := context.Background()
	var out []regionDigest
	dims := []int{2, 3, 4, 5, 6}
	for i := 0; i < 2*corpus.NumFamilies*len(dims); i++ {
		fam := byte(i % corpus.NumFamilies)
		dim := dims[(i/corpus.NumFamilies)%len(dims)]
		ins, ok := corpus.DecodeDim(corpus.Encode(fam, dim, 3+i%10, 1+i%4, i%7, int64(i)*7919+5), dim)
		if !ok {
			continue
		}
		q := core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
		prep, err := core.Prepare(ins.Pts, dim, false)
		if err != nil {
			t.Fatal(err)
		}
		name := func(solver string) string {
			return fmt.Sprintf("%03d/%s/d%d/%s", i, ins.Family, dim, solver)
		}
		seed := int64(i) + 1
		for _, s := range []core.Solver{
			core.EPTSolver{},
			core.BruteForceSolver{MaxPlanes: 64},
			baseline.LPCTASolver{},
			core.APCSolver{Opt: core.APCOptions{Samples: 60, Seed: seed}},
		} {
			r, _, err := s.Solve(ctx, prep, q)
			if err != nil {
				t.Fatalf("%s: %v", name(s.Name()), err)
			}
			out = append(out, digestRegion(name(s.Name()), r, seed))
		}
		strict := q
		if strict.K > 1 {
			strict.K--
		} else {
			strict.Eps /= 2
		}
		warm, _, _, err := core.APCAnytimeContext(ctx, ins.Pts, strict, core.AnytimeOptions{Samples: 40, Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", name("anytime-seed"), err)
		}
		r, _, _, err := core.APCAnytimeContext(ctx, ins.Pts, q, core.AnytimeOptions{Samples: 40, Seed: seed + 7, Warm: warm})
		if err != nil {
			t.Fatalf("%s: %v", name("anytime-warm"), err)
		}
		out = append(out, digestRegion(name("anytime-warm"), r, seed))
		if dim <= 4 {
			ix, err := baseline.BuildPBAContext(ctx, ins.Pts, q.K, 30000)
			if err == baseline.ErrPBABudget {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name("rank-tree"), err)
			}
			r, err := ix.QueryContext(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", name("rank-tree"), err)
			}
			out = append(out, digestRegion(name("rank-tree"), r, seed))
		}
	}
	return out
}

// TestRegionGoldenDigests pins every solver's regions to digests recorded
// from the solvers as they stood before regions were packed, when each
// region still held its partition tree's cells: packing must change no
// wire byte, no measure bit, no membership answer, no sample point and no
// piece count. The digests hold float bits, so they are checked only where
// they were recorded — amd64 without fused multiply-add (GOAMD64 < v3).
// Never regenerate them to absorb a difference; a change that is meant to
// move answers says so and records new ones with -update.
func TestRegionGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweep")
	}
	path := filepath.Join("testdata", "region_golden.json")
	got := packSweep(t)
	if *updateGolden {
		b := []byte("[\n")
		for i, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				b = append(b, ",\n"...)
			}
			b = append(b, line...)
		}
		if err := os.WriteFile(path, append(b, "\n]\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !goldenBitsComparable {
		t.Skip("golden float bits were recorded on amd64 without FMA")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []regionDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sweep produced %d regions, golden file holds %d", len(got), len(want))
	}
	nonEmpty := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s differs from its golden digest:\n got %+v\nwant %+v", want[i].Case, got[i], want[i])
		}
		if want[i].Pieces > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(want)/3 {
		t.Fatalf("only %d of %d golden regions are non-empty; sweep is vacuous", nonEmpty, len(want))
	}
}
