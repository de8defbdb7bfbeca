package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rrq/internal/diffcheck/corpus"
	"rrq/internal/geom"
	"rrq/internal/vec"
)

// referenceJSON is the reflection encoder AppendJSON replaced: it builds
// the wire structs, cloning every constraint and vertex, and runs
// json.Marshal. AppendJSON must reproduce its bytes and its errors.
func referenceJSON(r *Region) ([]byte, error) {
	out := regionJSON{Dim: r.dim, Intervals: r.intervals}
	if p := r.Pack(); p != nil {
		out.Cells = make([]cellJSON, 0, p.NumCells())
		for i := 0; i < p.NumCells(); i++ {
			cj := cellJSON{Constraints: []constraintJSON{}, Vertices: [][]float64{}}
			p.VisitConstraints(i, func(con geom.Constraint) {
				cj.Constraints = append(cj.Constraints, constraintJSON{Normal: con.H.Normal.Clone(), Sign: con.Sign})
			})
			for v := p.Vertices(i); len(v) > 0; v = v[p.Dim():] {
				cj.Vertices = append(cj.Vertices, slices.Clone(v[:p.Dim()]))
			}
			out.Cells = append(out.Cells, cj)
		}
	}
	return json.Marshal(out)
}

// checkJSONMatchesReference asserts that AppendJSON, appending after a
// prefix, and MarshalJSON both reproduce referenceJSON byte for byte, or
// fail with the same error and leave the prefix unextended.
func checkJSONMatchesReference(t *testing.T, name string, r *Region) {
	t.Helper()
	want, wantErr := referenceJSON(r)
	prefix := []byte(`{"prefix":`)
	got, err := r.AppendJSON(append([]byte(nil), prefix...))
	if wantErr != nil {
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) || err.Error() != wantErr.Error() {
			t.Fatalf("%s: AppendJSON error %v, want %v", name, err, wantErr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("%s: failed AppendJSON extended the buffer to %q", name, got)
		}
		if _, err := r.MarshalJSON(); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: MarshalJSON error %v, want %v", name, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: AppendJSON failed where json.Marshal succeeded: %v", name, err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: AppendJSON differs from the reference encoder:\n got %s\nwant %s", name, got[len(prefix):], want)
	}
	if m, err := r.MarshalJSON(); err != nil || !bytes.Equal(m, want) {
		t.Fatalf("%s: MarshalJSON differs from the reference encoder (err %v)", name, err)
	}
}

// solvedRegions answers one corpus instance with E-PT, brute force, A-PC,
// anytime A-PC warm-started from a stricter query's cut and, in 2-d,
// Sweeping; solvers that reject the instance are skipped.
func solvedRegions(ins corpus.Instance) map[string]*Region {
	q := Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
	out := map[string]*Region{}
	if r, err := EPT(ins.Pts, q); err == nil {
		out["ept"] = r
	}
	if r, err := BruteForceND(ins.Pts, q, 64); err == nil {
		out["brute"] = r
	}
	if r, err := APC(ins.Pts, q, APCOptions{Samples: 40, Seed: 3}); err == nil {
		out["apc"] = r
	}
	strict := q
	strict.Eps /= 2
	if seed, _, err := APCAnytime(ins.Pts, strict, AnytimeOptions{Samples: 30, Seed: 4}); err == nil {
		if r, _, err := APCAnytime(ins.Pts, q, AnytimeOptions{Samples: 30, Seed: 5, Warm: seed}); err == nil {
			out["anytime-warm"] = r
		}
	}
	if q.Q.Dim() == 2 {
		if r, err := Sweeping(ins.Pts, q); err == nil {
			out["sweeping"] = r
		}
	}
	return out
}

func TestAppendJSONMatchesReferenceCorpus(t *testing.T) {
	cellRegions, intervalRegions := 0, 0
	for fam := byte(0); fam < corpus.NumFamilies; fam++ {
		for d := 2; d <= 6; d++ {
			for seed := int64(0); seed < 3; seed++ {
				data := corpus.Encode(fam, d, 6+int(seed), 1+int(seed), int(fam)+int(seed), seed*7919+int64(d))
				ins, _ := corpus.DecodeDim(data, d)
				for solver, r := range solvedRegions(ins) {
					checkJSONMatchesReference(t, corpus.FamilyName(fam)+"/"+solver, r)
					if r.cells.NumCells() > 0 {
						cellRegions++
					}
					if len(r.intervals) > 0 {
						intervalRegions++
					}
				}
			}
		}
	}
	// Larger random instances give cells with long constraint chains.
	rng := rand.New(rand.NewSource(5))
	for d := 3; d <= 5; d++ {
		for i := 0; i < 4; i++ {
			pts, q := randomInstance(rng, 40, d)
			r, err := EPT(pts, q)
			if err != nil {
				t.Fatal(err)
			}
			checkJSONMatchesReference(t, "random/ept", r)
			if r.cells.NumCells() > 0 {
				cellRegions++
			}
		}
	}
	if cellRegions < 100 || intervalRegions < 10 {
		t.Fatalf("only %d cell and %d interval regions were non-empty; test is vacuous", cellRegions, intervalRegions)
	}
}

func TestAppendJSONMatchesReferenceEmpty(t *testing.T) {
	for d := 2; d <= 6; d++ {
		checkJSONMatchesReference(t, "empty", EmptyRegion(d))
		checkJSONMatchesReference(t, "no cells", NewCellRegion(d, []*geom.Cell{}))
	}
	checkJSONMatchesReference(t, "no intervals", NewIntervalRegion([][2]float64{}))
}

// specialNormal holds the values whose float formatting is easiest to get
// wrong: the 'e' switch at 1e-6 and 1e21, the e-07 → e-7 cleanup, the
// smallest subnormal and negative zero.
func specialNormal() vec.Vec {
	return vec.Of(1e-7, 5e-324, math.Copysign(0, -1), 1e20, -1e21)
}

// specialCell splits the 5-d simplex by a plane with specialNormal as its
// stored normal, so the cell's one constraint carries those exact values.
// Split classifies the simplex vertices by that normal alone: they fall on
// both sides of it.
func specialCell(t *testing.T) (*geom.Cell, vec.Vec) {
	t.Helper()
	h := geom.NewHyperplane(vec.Of(1, 1, 1, 1, -1), 0)
	h.Normal = specialNormal()
	_, c := geom.NewSimplex(5).Split(h)
	if c == nil || c.NumConstraints() != 1 {
		t.Fatal("special plane did not cut the simplex")
	}
	return c, h.Normal
}

func TestAppendJSONMatchesReferenceSpecialFloats(t *testing.T) {
	c, _ := specialCell(t)
	checkJSONMatchesReference(t, "special cell", NewCellRegion(5, []*geom.Cell{c}))
	ivs := [][2]float64{
		{1e-7, 5e-324}, {math.Copysign(0, -1), 1e20}, {1e21, -1e-7},
		{1e-6, 9.99999e-7}, {123456789.125, 1.5e-10}, {math.MaxFloat64, -math.SmallestNonzeroFloat64},
	}
	r := NewIntervalRegion(ivs)
	checkJSONMatchesReference(t, "special intervals", r)
	got, _ := r.MarshalJSON()
	want := `{"dim":2,"intervals":[[1e-7,5e-324],[-0,100000000000000000000],[1e+21,-1e-7],` +
		`[0.000001,9.99999e-7],[123456789.125,1.5e-10],[1.7976931348623157e+308,-5e-324]]}`
	if string(got) != want {
		t.Fatalf("special intervals encode as\n%s\nwant\n%s", got, want)
	}
}

func TestAppendJSONRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkJSONMatchesReference(t, "interval", NewIntervalRegion([][2]float64{{0.1, 0.2}, {0.3, x}}))
		// The stored normal aliases the plane's, so poisoning it after the
		// cut reaches the cell's constraint without changing its geometry.
		c, normal := specialCell(t)
		normal[2] = x
		checkJSONMatchesReference(t, "constraint", NewCellRegion(5, []*geom.Cell{c}))
		if _, err := NewCellRegion(5, []*geom.Cell{c}).AppendJSON(nil); err == nil {
			t.Fatalf("constraint holding %v encoded without error", x)
		}
	}
}

// decodedRegion round-trips r through its JSON. UnmarshalJSON numbers
// each cell's planes from 0 and gives every cell its own normals, so equal
// plane IDs carry different normals across the decoded cells.
func decodedRegion(t *testing.T, r *Region) *Region {
	t.Helper()
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Region
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	return &back
}

// collidingRegion cuts the simplex into the arrangement of up to six
// planes, plane i having normal pts[i] − mean(pts[i])·1 and ID
// base + i·stride. With stride 256 every plane falls in
// one memo slot of the encoder; cells share their planes' storage, as in
// a solved region.
func collidingRegion(pts []vec.Vec, base, stride int) *Region {
	d := pts[0].Dim()
	cells := []*geom.Cell{geom.NewSimplex(d)}
	for i, p := range pts[:min(len(pts), 6)] {
		w := p.Clone()
		m := w.Mean()
		for j := range w {
			w[j] -= m
		}
		if w.Norm() < 1e-6 {
			continue
		}
		h := geom.NewHyperplane(w, base+i*stride)
		var next []*geom.Cell
		for _, c := range cells {
			if c.Relation(h) != geom.RelCross {
				next = append(next, c)
				continue
			}
			neg, pos := c.Split(h)
			for _, s := range []*geom.Cell{neg, pos} {
				if s != nil {
					next = append(next, s)
				}
			}
		}
		cells = next
	}
	return NewCellRegion(d, cells)
}

// memoKeySeeds are corpus inputs (3-d and 4-d random points) whose E-PT
// regions, decoded or rebuilt on colliding plane IDs, have several cells
// sharing constraints.
func memoKeySeeds() [][]byte {
	return [][]byte{
		corpus.Encode(corpus.FamRandom, 1, 9, 3, 1, 12),
		corpus.Encode(corpus.FamRandom, 2, 9, 1, 1, 29),
	}
}

// TestAppendJSONMemoKeys covers the encoder's normal memo on the regions
// where a key weaker than the normal's storage would copy wrong bytes:
// decoded regions (equal IDs, different normals), plane IDs equal mod
// 256, and IDs at and above 1<<30.
func TestAppendJSONMemoKeys(t *testing.T) {
	for _, seed := range memoKeySeeds() {
		ins, _ := corpus.Decode(seed)
		r, err := EPT(ins.Pts, Query{Q: ins.Q, K: ins.K, Eps: ins.Eps})
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string]*Region{
			"decoded":   decodedRegion(t, r),
			"colliding": collidingRegion(ins.Pts, 7, 256),
			"id>=1<<30": collidingRegion(ins.Pts, 1<<30, 1),
		}
		for name, reg := range cases {
			deepest := 0
			for i := 0; i < reg.NumPieces(); i++ {
				deepest = max(deepest, len(reg.cells.Refs(i)))
			}
			if reg.NumPieces() < 5 || deepest < 3 {
				t.Fatalf("%s: %d cells, at most %d constraints; test is vacuous", name, reg.NumPieces(), deepest)
			}
			checkJSONMatchesReference(t, name, reg)
		}
	}
}

// FuzzRegionJSONMatchesReference checks AppendJSON against the reflection
// encoder on corpus-decoded instances of any dimension — each solved
// region, its decoded copy, and the instance's arrangement on plane IDs
// that collide in the encoder's memo — plus an interval region whose
// endpoints are the input's trailing bytes read as float64 bit patterns —
// NaN, ±Inf and subnormals included.
func FuzzRegionJSONMatchesReference(f *testing.F) {
	for _, seed := range append(corpus.Seeds(), memoKeySeeds()...) {
		f.Add(seed)
	}
	special := corpus.Encode(corpus.FamRandom, 3, 8, 2, 1, 11)
	for _, x := range append(specialNormal(), 1e21, 1e-6, math.NaN(), math.Inf(-1)) {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(x))
	}
	f.Add(special)
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, ok := corpus.Decode(data)
		if !ok {
			return
		}
		for solver, r := range solvedRegions(ins) {
			checkJSONMatchesReference(t, ins.Family+"/"+solver, r)
			if r.cells.NumCells() > 0 {
				checkJSONMatchesReference(t, ins.Family+"/"+solver+"/decoded", decodedRegion(t, r))
			}
		}
		checkJSONMatchesReference(t, ins.Family+"/colliding", collidingRegion(ins.Pts, 7, 256))
		var ivs [][2]float64
		for rest := data[corpus.EncodedLen:]; len(rest) >= 16; rest = rest[16:] {
			ivs = append(ivs, [2]float64{
				math.Float64frombits(binary.LittleEndian.Uint64(rest)),
				math.Float64frombits(binary.LittleEndian.Uint64(rest[8:])),
			})
		}
		checkJSONMatchesReference(t, "bit-pattern intervals", NewIntervalRegion(ivs))
	})
}

func TestRegionJSONRoundTripIntervals(t *testing.T) {
	pts := table3()
	q := Query{Q: vec.Of(0.4, 0.7), K: 1, Eps: 0.1}
	reg, err := Sweeping(pts, q)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(reg)
	if err != nil {
		t.Fatal(err)
	}
	var back Region
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		u := vec.RandSimplex(rng, 2)
		if reg.Contains(u) != back.Contains(u) {
			t.Fatalf("round trip changed membership at %v", u)
		}
	}
}

func TestRegionJSONRoundTripCells(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		pts, q := randomInstance(rng, 25, 3)
		reg, err := EPT(pts, q)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(reg)
		if err != nil {
			t.Fatal(err)
		}
		var back Region
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			u := vec.RandSimplex(rng, 3)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if reg.Contains(u) != back.Contains(u) {
				t.Fatalf("trial %d: round trip changed membership at %v", trial, u)
			}
		}
	}
}

func TestRegionJSONEmpty(t *testing.T) {
	data, err := json.Marshal(emptyRegion(4))
	if err != nil {
		t.Fatal(err)
	}
	var back Region
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Empty() || back.Dim() != 4 {
		t.Fatalf("empty region round trip: %+v", back)
	}
}

func TestRegionJSONBadInput(t *testing.T) {
	var r Region
	if err := json.Unmarshal([]byte(`{"dim": `), &r); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
