package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"

	"rrq"
	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// data is a generated dataset as rrqd sees it: the CSV file it is given
// and the same file loaded the way rrqd loads it, so in-process re-solves
// run on bit-identical points.
type data struct {
	csv string
	ds  *rrq.Dataset
	pts []vec.Vec // normalized points, in file order
}

// workloadSeed fixes what defines a workload: its dataset, for the Zipf
// workloads the query universe and each query's popularity rank, and the
// churn write stream. --seed draws the read traffic on top of it: which
// query each request asks, the cold queries and the batches. Seeds then
// vary the traffic, not the workload, so runs with different seeds are
// comparable.
const workloadSeed = 1

// makeData writes an Independent n×d dataset drawn from seed to path and
// loads it back.
func makeData(path string, n, d int, seed int64) (*data, error) {
	src := rrq.SyntheticDataset(rrq.Independent, n, d, seed)
	raw := make([]vec.Vec, src.Len())
	for i := range raw {
		raw[i] = vec.Vec(src.PointAt(i))
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := dataset.WriteCSV(w, raw); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return loadData(path)
}

// loadData reads a CSV exactly as rrqd's -data flag does: strict parse,
// NewDataset, Normalize.
func loadData(path string) (*data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, err
	}
	raw := make([][]float64, len(rows))
	for i, p := range rows {
		raw[i] = p
	}
	ds, err := rrq.NewDataset(raw)
	if err != nil {
		return nil, err
	}
	ds = ds.Normalize()
	pts := make([]vec.Vec, ds.Len())
	for i := range pts {
		pts[i] = vec.Vec(ds.PointAt(i))
	}
	return &data{csv: path, ds: ds, pts: pts}, nil
}

// band returns the k-skyband of pts, the point set the index's prefilter
// hands the solver for rank k.
func band(pts []vec.Vec, k int) []vec.Vec {
	return skyband.Select(pts, skyband.KSkyband(pts, k))
}

// decidedByBase reports whether preprocessing alone answers q: at least k
// points of the k-band beat q everywhere, so the plane set's effective
// budget is ≤ 0 and the region is empty without any search.
func decidedByBase(kband []vec.Vec, q rrq.Query) bool {
	ps := core.BuildPlanes(kband, core.Query{Q: vec.Vec(q.Q), K: q.K, Eps: q.Epsilon})
	return ps.KEff(q.K) <= 0
}

// query is one generated request with its class label, fixed at
// generation time.
type query struct {
	q       rrq.Query
	decided bool   // decided by the base count (empty without search)
	body    []byte // the /v1/solve request body
}

func newQuery(q rrq.Query, kband []vec.Vec) query {
	body, err := json.Marshal(struct {
		Q       []float64 `json:"q"`
		K       int       `json:"k"`
		Epsilon float64   `json:"epsilon"`
	}{q.Q, q.K, q.Epsilon})
	if err != nil {
		panic(err) // only finite floats and ints are marshalled
	}
	return query{q: q, decided: decidedByBase(kband, q), body: body}
}

// perturb scales each attribute of p by a factor in [1−spread, 1+spread],
// clamped into (0, 1].
func perturb(rng *rand.Rand, p vec.Vec, spread float64) rrq.Point {
	q := make(rrq.Point, len(p))
	for j, x := range p {
		y := x * (1 + spread*(2*rng.Float64()-1))
		if y > 1 {
			y = 1
		}
		if y < 1e-3 {
			y = 1e-3
		}
		q[j] = y
	}
	return q
}

// stream is a workload's read stream: the i-th request asks query id
// Next(i), and Query(id) returns that query. Both are pure functions of
// the seed, so a seed fixes the inputs whatever the speed of the run.
type stream interface {
	Next(i int) int
	Query(id int) query
}

// zipfStream draws request ids Zipf(s) from a universe of queries fixed
// by workloadSeed, each a perturbed random dataset point with k and ε
// drawn from small grids; query id is its popularity rank.
type zipfStream struct {
	queries []query
	seq     []int32
}

const zipfSeqLen = 1 << 18

func newZipfStream(pts []vec.Vec, distinct int, s float64, seed int64) *zipfStream {
	rng := rand.New(rand.NewSource(workloadSeed))
	ks := []int{5, 10, 20}
	epss := []float64{0.05, 0.1, 0.2}
	bands := map[int][]vec.Vec{}
	for _, k := range ks {
		bands[k] = band(pts, k)
	}
	qs := make([]rrq.Query, distinct)
	for i := range qs {
		p := pts[rng.Intn(len(pts))]
		qs[i] = rrq.Query{Q: perturb(rng, p, 0.05), K: ks[rng.Intn(len(ks))], Epsilon: epss[rng.Intn(len(epss))]}
	}
	z := &zipfStream{queries: make([]query, distinct), seq: make([]int32, zipfSeqLen)}
	parallel(distinct, func(i int) { z.queries[i] = newQuery(qs[i], bands[qs[i].K]) })
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed^0x5eed)), s, 1, uint64(distinct-1))
	for i := range z.seq {
		z.seq[i] = int32(zipf.Uint64())
	}
	return z
}

func (z *zipfStream) Next(i int) int     { return int(z.seq[i%len(z.seq)]) }
func (z *zipfStream) Query(id int) query { return z.queries[id] }

// coldStream yields a distinct competitive query per request: a perturbed
// point of the k-band that preprocessing cannot decide. Query i is drawn
// from its own seeded generator, so the stream is unbounded and needs no
// table; generated queries are memoized for the checks.
type coldStream struct {
	kband []vec.Vec
	k     int
	eps   float64
	seed  int64

	mu   sync.Mutex
	memo map[int]query
}

func newColdStream(pts []vec.Vec, k int, eps float64, seed int64) *coldStream {
	return &coldStream{kband: band(pts, k), k: k, eps: eps, seed: seed, memo: map[int]query{}}
}

func (c *coldStream) Next(i int) int { return i }

func (c *coldStream) Query(id int) query {
	c.mu.Lock()
	q, ok := c.memo[id]
	c.mu.Unlock()
	if ok {
		return q
	}
	rng := rand.New(rand.NewSource(c.seed*1_000_003 + int64(id)))
	for {
		p := c.kband[rng.Intn(len(c.kband))]
		q = newQuery(rrq.Query{Q: perturb(rng, p, 0.03), K: c.k, Epsilon: c.eps}, c.kband)
		if !q.decided {
			break
		}
	}
	c.mu.Lock()
	c.memo[id] = q
	c.mu.Unlock()
	return q
}

// mutation is one write of the churn stream.
type mutation struct {
	insert bool
	point  rrq.Point // insert
	index  int       // delete
	body   []byte
}

// mutationAt returns the i-th write of the churn stream, which
// workloadSeed fixes: even writes insert a uniform point, odd writes
// delete a seeded index below n. The stream alternates, so the dataset
// holds n or n+1 points and every index below n is always in range.
func mutationAt(i, n, d int) mutation {
	rng := rand.New(rand.NewSource(workloadSeed*7_919 + int64(i)))
	if i%2 == 0 {
		p := make(rrq.Point, d)
		for j := range p {
			p[j] = 0.05 + 0.95*rng.Float64()
		}
		return mutation{insert: true, point: p, body: pointBody(p)}
	}
	idx := rng.Intn(n)
	return mutation{index: idx, body: []byte(`{"index":` + strconv.Itoa(idx) + `}`)}
}

func pointBody(p rrq.Point) []byte {
	b := []byte(`{"point":[`)
	for j, x := range p {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']', '}')
}

// mirror replays acknowledged mutations onto the seed points, giving the
// dataset rrqd serves at any version.
type mirror struct {
	base        []vec.Vec
	baseVersion uint64
	log         []mutation // log[i] produced version baseVersion+i+1

	// The replay cursor: the points at version curV (0: not started).
	// Versions asked in ascending order each cost one mutation.
	cur  []vec.Vec
	curV uint64
}

// at returns the dataset at version v.
func (m *mirror) at(v uint64) (*rrq.Dataset, error) {
	if v < m.baseVersion || v > m.baseVersion+uint64(len(m.log)) {
		return nil, fmt.Errorf("version %d outside mirrored range [%d, %d]", v, m.baseVersion, m.baseVersion+uint64(len(m.log)))
	}
	if m.curV == 0 || v < m.curV {
		m.cur = append(make([]vec.Vec, 0, len(m.base)+1), m.base...)
		m.curV = m.baseVersion
	}
	for ; m.curV < v; m.curV++ {
		mu := m.log[m.curV-m.baseVersion]
		if mu.insert {
			m.cur = append(m.cur, vec.Vec(mu.point))
		} else {
			m.cur = append(m.cur[:mu.index], m.cur[mu.index+1:]...)
		}
	}
	pts := make([][]float64, len(m.cur))
	for i, p := range m.cur {
		pts[i] = p
	}
	return rrq.NewDataset(pts)
}

// parallel runs fn(0..n-1) on two goroutines.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
