package core

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"rrq/internal/geom"
)

// regionJSON is the wire form of a Region: either intervals (d = 2 sweep
// results) or cells described by their half-space constraints. Vertices are
// included for convenience (plotting, debugging); membership can be decided
// from the constraints alone. AppendJSON writes this form directly;
// UnmarshalJSON reads it back.
type regionJSON struct {
	Dim       int          `json:"dim"`
	Intervals [][2]float64 `json:"intervals,omitempty"`
	Cells     []cellJSON   `json:"cells,omitempty"`
}

type cellJSON struct {
	Constraints []constraintJSON `json:"constraints"`
	Vertices    [][]float64      `json:"vertices"`
}

type constraintJSON struct {
	Normal []float64 `json:"normal"` // unit normal of the hyper-plane
	Sign   int       `json:"sign"`   // +1 keeps u·normal ≥ 0, −1 keeps ≤ 0
}

// MarshalJSON encodes the region. The encoding is self-contained: a
// consumer can test membership of a utility vector u by checking
// sign·(u·normal) ≥ 0 for every constraint of some cell (or locating u[0]
// in an interval for 2-d sweep output).
func (r *Region) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// AppendJSON appends the MarshalJSON encoding of the region to b in one
// pass and returns the extended buffer. The bytes are those encoding/json
// produces for the wire form — field order, omitted empty fields and its
// float format (shortest 'f' digits, 'e' below 1e-6 and from 1e21 up, with
// a one-digit negative exponent written e-7, not e-07). Packed cells are
// walked in place, without cloning constraints or vertices. A NaN or ±Inf
// coordinate fails with the *json.UnsupportedValueError json.Marshal
// reports, and b is returned unextended.
func (r *Region) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	w := jsonWriter{b: b}
	w.b = append(w.b, `{"dim":`...)
	w.b = strconv.AppendInt(w.b, int64(r.dim), 10)
	if len(r.intervals) > 0 {
		w.b = append(w.b, `,"intervals":[`...)
		for i := range r.intervals {
			w.sep(i)
			w.floats(r.intervals[i][:])
		}
		w.b = append(w.b, ']')
	}
	if n := r.cells.NumCells(); n > 0 {
		w.b = append(w.b, `,"cells":[`...)
		for i := 0; i < n; i++ {
			w.sep(i)
			w.cell(&r.cells, i)
		}
		w.b = append(w.b, ']')
	}
	if w.err != nil {
		return w.b[:start], w.err
	}
	return append(w.b, '}'), nil
}

// jsonWriter is the state of one AppendJSON call. err keeps the first
// non-finite value met (encoding runs on past it and is then discarded).
//
// Cells of one region share their planes, so most normals recur many
// times in a body. normals remembers, by pack plane number, where a normal
// was first written, and a repeat copies those bytes instead of formatting
// the floats again. Planes numbered past the memo are formatted each time.
type jsonWriter struct {
	b       []byte
	err     error
	normals [512]span
}

// span records that a normal was encoded as b[start:end]; end == 0 marks a
// normal not yet written (an encoding is never empty).
type span struct{ start, end int }

// sep writes the comma that precedes array element i.
func (w *jsonWriter) sep(i int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
}

// cell writes packed cell i: its constraints in insertion order, then
// its vertices.
func (w *jsonWriter) cell(p *geom.Pack, i int) {
	w.b = append(w.b, `{"constraints":[`...)
	for k, ref := range p.Refs(i) {
		w.sep(k)
		w.b = append(w.b, `{"normal":`...)
		w.normal(p, ref.Plane())
		w.b = append(w.b, `,"sign":`...)
		w.b = strconv.AppendInt(w.b, int64(ref.Sign()), 10)
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, `],"vertices":[`...)
	d := p.Dim()
	for k, v := 0, p.Vertices(i); len(v) > 0; k, v = k+1, v[d:] {
		w.sep(k)
		w.floats(v[:d])
	}
	w.b = append(w.b, "]}"...)
}

// normal writes plane j's normal, copying its earlier encoding when the
// memo holds it. A copy repeats no error: the first encoding already
// recorded any non-finite value.
func (w *jsonWriter) normal(p *geom.Pack, j int) {
	if j >= len(w.normals) {
		w.floats(p.Normal(j))
		return
	}
	if s := w.normals[j]; s.end != 0 {
		w.b = append(w.b, w.b[s.start:s.end]...)
		return
	}
	start := len(w.b)
	w.floats(p.Normal(j))
	w.normals[j] = span{start, len(w.b)}
}

// floats writes xs as a JSON array of numbers.
func (w *jsonWriter) floats(xs []float64) {
	w.b = append(w.b, '[')
	for i, x := range xs {
		w.sep(i)
		if w.err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
		}
		w.b = appendFloat(w.b, x)
	}
	w.b = append(w.b, ']')
}

// appendFloat appends f exactly as encoding/json formats a finite float64
// (ES6 number-to-string); floats rejects the non-finite values first.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7. Every 'e' result is at least four bytes long, so the
		// test never reaches into bytes before f.
		n := len(b)
		if b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// UnmarshalJSON decodes a region previously produced by MarshalJSON. Cells
// are reconstructed as constraint sets with their stored vertices; the
// disjointness flag is conservatively dropped (measure falls back to
// Monte-Carlo in d ≥ 3).
func (r *Region) UnmarshalJSON(data []byte) error {
	var in regionJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	r.dim = in.Dim
	r.intervals = in.Intervals
	r.disjoint = false
	var cells []*geom.Cell
	for _, cj := range in.Cells {
		cell := geom.NewSimplex(in.Dim)
		for i, con := range cj.Constraints {
			h := geom.NewHyperplane(con.Normal, i)
			cell = cell.Clip(h, con.Sign)
			if cell == nil {
				// Numerically empty after round-trip; drop the cell.
				break
			}
		}
		if cell != nil {
			cells = append(cells, cell)
		}
	}
	r.cells = geom.PackCells(in.Dim, nil, cells)
	return nil
}
