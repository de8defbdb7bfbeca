package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rrq"
	"rrq/internal/server"
)

// cycleStream asks a few fixed queries in turn, so every query repeats
// within a short window.
type cycleStream struct{ qs []query }

func (c cycleStream) Next(i int) int     { return i % len(c.qs) }
func (c cycleStream) Query(id int) query { return c.qs[id] }

// wrapper puts a fault in front of the server for dataset d and index ix.
type wrapper func(d *data, ix *rrq.Index, h http.Handler) http.Handler

// testServer serves a small dataset through the real server package, as
// rrqd does by default, behind wrap.
func testServer(t *testing.T, wrap wrapper) (*data, *httptest.Server) {
	t.Helper()
	d, err := makeData(filepath.Join(t.TempDir(), "data.csv"), 400, 3, workloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	ix, h := newHandler(t, d)
	ts := httptest.NewServer(wrap(d, ix, h))
	t.Cleanup(ts.Close)
	return d, ts
}

// newHandler builds an index over d and the server package's handler for it.
func newHandler(t *testing.T, d *data) (*rrq.Index, http.Handler) {
	t.Helper()
	reg := rrq.NewRegistry()
	ix, err := rrq.BuildIndex(d.ds, rrq.WithResultCache(1024), rrq.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Index: ix, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return ix, srv.Handler()
}

// run measures one short window against ts and returns the result.
func run(t *testing.T, d *data, ts *httptest.Server, spec serveSpec) *result {
	t.Helper()
	e := &env{seed: 7, seconds: time.Second}
	cold := newColdStream(d.pts, 5, 0.1, e.seed)
	st := cycleStream{}
	for i := 0; i < 4; i++ {
		st.qs = append(st.qs, cold.Query(i))
	}
	r := newResult()
	if err := measure(e, r, ts.URL, st, &mirror{base: d.pts, baseVersion: 1}, spec, os.Getpid()); err != nil {
		t.Fatal(err)
	}
	return r
}

// passThrough serves unchanged.
func passThrough(_ *data, _ *rrq.Index, h http.Handler) http.Handler { return h }

// corruptRegion flips one digit inside the region of the third /v1/solve
// response. The body stays valid JSON; only the region bytes change.
func corruptRegion(_ *data, _ *rrq.Index, h http.Handler) http.Handler {
	var mu sync.Mutex
	solves := 0
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if req.URL.Path == "/v1/solve" && rec.Code == http.StatusOK {
			mu.Lock()
			solves++
			if solves == 3 {
				i := bytes.Index(body, regionKey)
				for j := i + len(regionKey); j < len(body); j++ {
					if c := body[j]; c >= '1' && c <= '8' {
						body[j] = c + 1
						break
					}
				}
			}
			mu.Unlock()
		}
		copyHeader(w, rec)
		w.Write(body)
	})
}

// dropWrite acknowledges the third insert without applying it, and from
// then on reports every acknowledged version one higher, so the client
// sees a consistent version sequence and only /v1/stats can tell.
func dropWrite(_ *data, ix *rrq.Index, h http.Handler) http.Handler {
	var mu sync.Mutex
	inserts, dropped := 0, false
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mutation := req.URL.Path == "/v1/insert" || req.URL.Path == "/v1/delete"
		if !mutation {
			h.ServeHTTP(w, req)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if req.URL.Path == "/v1/insert" {
			inserts++
			if inserts == 3 {
				dropped = true
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(map[string]uint64{"version": ix.Version() + 1})
				return
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if dropped && rec.Code == http.StatusOK {
			var ack struct{ Version uint64 }
			if err := json.Unmarshal(body, &ack); err == nil {
				body, _ = json.Marshal(map[string]uint64{"version": ack.Version + 1})
			}
		}
		copyHeader(w, rec)
		w.Write(body)
	})
}

// staleReads answers every /v1/solve from a second index over the same
// data that never sees a write, labelled with the live index's version: a
// read path that ignores acknowledged writes.
func staleReads(t *testing.T) wrapper {
	return func(d *data, ix *rrq.Index, h http.Handler) http.Handler {
		_, frozen := newHandler(t, d)
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/v1/solve" {
				h.ServeHTTP(w, req)
				return
			}
			rec := httptest.NewRecorder()
			frozen.ServeHTTP(rec, req)
			live := []byte(`"version":` + strconv.FormatUint(ix.Version(), 10) + `,`)
			body := bytes.Replace(rec.Body.Bytes(), []byte(`"version":1,`), live, 1)
			copyHeader(w, rec)
			w.Write(body)
		})
	}
}

func copyHeader(w http.ResponseWriter, rec *httptest.ResponseRecorder) {
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.Header().Del("Content-Length")
	w.WriteHeader(rec.Code)
}

func errorRateOf(t *testing.T, r *result) float64 {
	t.Helper()
	rate := r.errorRate()
	t.Logf("attempted %d, failed %d, error_rate %g, reasons %q", r.attempted, r.failed, rate, r.reasons)
	return rate
}

func TestCorruptRegionRaisesErrorRate(t *testing.T) {
	reads := serveSpec{readers: 1}
	d, ts := testServer(t, passThrough)
	if rate := errorRateOf(t, run(t, d, ts, reads)); rate != 0 {
		t.Fatalf("clean server: error_rate %g, want 0", rate)
	}
	d, ts = testServer(t, corruptRegion)
	r := run(t, d, ts, reads)
	if rate := errorRateOf(t, r); rate <= 0 {
		t.Fatal("a corrupted region byte left error_rate at 0")
	}
	if !strings.Contains(strings.Join(r.reasons, "\n"), "differs") {
		t.Errorf("failure reasons do not name a differing region: %q", r.reasons)
	}
}

func TestDroppedWriteRaisesErrorRate(t *testing.T) {
	writes := serveSpec{churn: true}
	d, ts := testServer(t, passThrough)
	if rate := errorRateOf(t, run(t, d, ts, writes)); rate != 0 {
		t.Fatalf("clean server: error_rate %g, want 0", rate)
	}
	d, ts = testServer(t, dropWrite)
	r := run(t, d, ts, writes)
	if rate := errorRateOf(t, r); rate <= 0 {
		t.Fatal("a dropped acknowledged write left error_rate at 0")
	}
	if !strings.Contains(strings.Join(r.reasons, "\n"), "acknowledged write is missing") {
		t.Errorf("failure reasons do not name the missing write: %q", r.reasons)
	}
}

// TestStaleReadRaisesErrorRate runs reads beside writes. On the real
// server, answers that overlap a write carry a label newer than the
// snapshot they were solved on, and still pass. Answers from a snapshot
// older than an acknowledged write fail, whatever their label says.
func TestStaleReadRaisesErrorRate(t *testing.T) {
	mixed := serveSpec{readers: 1, churn: true}
	d, ts := testServer(t, passThrough)
	if rate := errorRateOf(t, run(t, d, ts, mixed)); rate != 0 {
		t.Fatalf("clean server: error_rate %g, want 0", rate)
	}
	d, ts = testServer(t, staleReads(t))
	r := run(t, d, ts, mixed)
	if rate := errorRateOf(t, r); rate <= 0 {
		t.Fatal("answers that ignore acknowledged writes left error_rate at 0")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and this program in step:
// the same workloads, and the same metric names and units in each set.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, perfbench %v", names, have)
	}
	for _, set := range []struct {
		name string
		json []def
		go_  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(set.json) != len(set.go_) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", set.name, len(set.json), len(set.go_))
			continue
		}
		for i, m := range set.go_ {
			if set.json[i].Name != m.name || set.json[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", set.name, i, set.json[i].Name, set.json[i].Unit, m.name, m.unit)
			}
		}
	}
}
