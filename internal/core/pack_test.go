package core

import (
	"bytes"
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

// A decoded region gives every cell its own normals, numbered from 0 in
// each cell, so its pack holds one plane per constraint — more than the
// encoder's plane memo, whose overflow is then formatted in place. Both
// must encode as the reference encoder does.
func TestPackedDecodedRegionPastTheMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var w jsonWriter
	for trial := 0; trial < 40; trial++ {
		pts, q := randomInstance(rng, 60, 4)
		q.Q, q.K, q.Eps = vec.Of(0.97, 0.95, 0.2, 0.3), 4, 0.1
		r, err := EPT(pts, q)
		if err != nil {
			t.Fatal(err)
		}
		back := decodedRegion(t, r)
		p := back.Pack()
		if p == nil || p.NumPlanes() <= len(w.normals) {
			continue
		}
		refs := 0
		for i := 0; i < p.NumCells(); i++ {
			refs += len(p.Refs(i))
		}
		if p.NumPlanes() != refs {
			t.Fatalf("decoded pack shares planes across cells: %d planes for %d constraints", p.NumPlanes(), refs)
		}
		checkJSONMatchesReference(t, "decoded", back)
		return
	}
	t.Fatalf("no decoded region had more than %d planes; test is vacuous", len(w.normals))
}

// An anytime run warm-started from a cached region packs the seed's cells
// first, verbatim, then its own: its encoding starts with the seed's cells.
func TestPackedWarmStartLeadsWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	grew := 0
	for trial := 0; trial < 20; trial++ {
		d := 3 + rng.Intn(2)
		pts, q := randomInstance(rng, 30, d)
		q.K++
		strict := q
		strict.K--
		seed, _, _, err := APCAnytimeContext(t.Context(), pts, strict, AnytimeOptions{Samples: 40, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if seed.Pack() == nil {
			continue
		}
		r, _, _, err := APCAnytimeContext(t.Context(), pts, q, AnytimeOptions{Samples: 40, Seed: int64(trial) + 7, Warm: seed})
		if err != nil {
			t.Fatal(err)
		}
		checkJSONMatchesReference(t, "warm", r)
		sb, _ := seed.MarshalJSON()
		rb, _ := r.MarshalJSON()
		head := sb[:len(sb)-2] // without the closing "]}"
		if !bytes.HasPrefix(rb, head) || (rb[len(head)] != ',' && rb[len(head)] != ']') {
			t.Fatalf("trial %d: warm-started region does not lead with the seed's cells\nseed %s\n got %s", trial, sb, rb)
		}
		if r.NumPieces() > seed.NumPieces() {
			grew++
		}
	}
	if grew < 3 {
		t.Fatalf("only %d warm starts added cells; test is vacuous", grew)
	}
}
