package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"rrq"
	"rrq/internal/core"
	"rrq/internal/wal"
)

// Query classes. A hit was served from rrqd's result cache; every other
// answered request ran the solver (or shared a concurrent identical one:
// dedup). Decided means the base count answered it before any search;
// empty and nonempty split the searched ones by their answer.
const (
	clsHit = iota
	clsDecided
	clsEmpty
	clsNonempty
	clsDedup
	clsOther
	numClasses
)

var classNames = [numClasses]string{"hit", "decided-miss", "empty-miss", "nonempty-miss", "dedup", "other"}

func classOf(s sample, q query) int {
	switch {
	case s.cache == statusHit:
		return clsHit
	case s.deduped:
		return clsDedup
	case s.cache != statusMiss:
		return clsOther
	case q.decided:
		return clsDecided
	case s.parts == 0:
		return clsEmpty
	default:
		return clsNonempty
	}
}

// resolvePerClass is how many answers of each class are re-solved
// in-process after the window.
const resolvePerClass = 6

// analyzeServe checks a serve window and sets its metrics.
func analyzeServe(e *env, r *result, w *window, st stream, m *mirror, spec serveSpec, before, after scrape) {
	sort.Slice(w.reads, func(a, b int) bool { return w.reads[a].at < w.reads[b].at })
	o := &oracle{m: m, st: st, datasets: map[uint64]*rrq.Dataset{}, hashes: map[[2]uint64]uint64{}}
	epochs, bad, overlap := checkReads(w, st, o, spec)
	var count [numClasses]int
	var members [numClasses][]int
	var rtt, overhead, elapsed, sizes, traced, untraced, ttfb, xfer []float64
	var classRTT, classElapsed [numClasses][]float64
	var done []time.Duration // completion offsets, for per-second rates
	for i, s := range w.reads {
		if _, failed := bad[i]; failed {
			continue
		}
		c := classOf(s, st.Query(s.qid))
		count[c]++
		members[c] = append(members[c], i)
		x := ms(s.rtt)
		rtt = append(rtt, x)
		done = append(done, s.at+s.rtt)
		overhead = append(overhead, x-s.elapsed)
		elapsed = append(elapsed, s.elapsed)
		sizes = append(sizes, float64(s.size)/1024)
		classRTT[c] = append(classRTT[c], x)
		classElapsed[c] = append(classElapsed[c], s.elapsed)
		if s.traced {
			traced = append(traced, x)
			ttfb = append(ttfb, ms(s.ttfb))
			xfer = append(xfer, ms(s.xfer))
		} else {
			untraced = append(untraced, x)
		}
	}
	resolved, stats := resolveSample(e, w, st, o, epochs, members, bad)

	r.attempted += len(w.reads)
	for i, reason := range bad {
		r.fail("read %d: %s", i, reason)
	}
	var writeLat, writeLag []float64
	for _, ws := range w.writes {
		r.attempted++
		if ws.err != "" {
			r.fail("write: %s", ws.err)
			continue
		}
		writeLat = append(writeLat, ms(ws.lat))
		writeLag = append(writeLag, ms(ws.lag))
	}
	checkMix(r, spec, count)

	answered := len(rtt)
	misses := count[clsDecided] + count[clsEmpty] + count[clsNonempty]
	distinct := map[int]bool{}
	for _, s := range w.reads {
		distinct[s.qid] = true
	}
	r.note("window %v: %d reads answered (%d distinct queries), %d writes", w.dur.Round(time.Millisecond),
		answered, len(distinct), len(w.writes))
	mix := ""
	for c := 0; c < numClasses; c++ {
		mix += fmt.Sprintf(" %s %d (%.1f%%)", classNames[c], count[c], 100*frac(float64(count[c]), float64(answered)))
	}
	r.note("class mix:%s", mix)
	r.note("re-solved in-process: %v (hit, decided, empty, nonempty)", resolved)
	if spec.churn {
		r.note("reads overlapping a write: %d labelled newer than the version acknowledged before they were sent; "+
			"%d matched an answer seen at a version in between, %d were placed by in-process re-solves",
			overlap.reads, overlap.seen, overlap.resolved)
	}

	// End-to-end; rtt is in send order.
	perSec := secondCounts(done, w.dur)
	r.set("solve_qps", quantile(perSec, 0.5))
	r.set("solve_p50_ms", chunked(rtt, 0.5))
	r.set("solve_tail_ms", chunked(rtt, 0.99))
	r.set("cpu_ms_per_op", frac(ms(w.cpu), float64(answered+len(writeLat))))
	r.note("round trips: n %d in %d chunks of %d; pooled p50 %.4f ms, p99 %.4f ms; reads per second %.0f..%.0f, mean %.1f",
		answered, answered/chunkSize, chunkSize, quantile(rtt, 0.5), quantile(rtt, 0.99),
		quantile(perSec, 0), quantile(perSec, 1), float64(answered)/w.dur.Seconds())

	// Classes.
	r.set("hit_p50_ms", quantile(classRTT[clsHit], 0.5))
	r.set("hit_n", float64(count[clsHit]))
	r.set("decided_miss_p50_ms", quantile(classRTT[clsDecided], 0.5))
	r.set("decided_miss_n", float64(count[clsDecided]))
	r.set("nonempty_miss_p50_ms", quantile(classRTT[clsNonempty], 0.5))
	r.set("nonempty_miss_n", float64(count[clsNonempty]))
	r.set("mutate_p50_ms", quantile(writeLat, 0.5))
	r.set("mutate_p99_ms", quantile(writeLat, 0.99))
	r.set("mutate_n", float64(len(writeLat)))
	r.set("gen.lag_p99_ms", quantile(writeLag, 0.99))

	// internal/server, timed from outside: the round trip minus the
	// solve time rrqd reports lumps decode, tenant check, admission,
	// snapshot pin, encode and loopback.
	r.set("server.overhead_p50_ms", quantile(overhead, 0.5))
	r.set("server.overhead_p99_ms", quantile(overhead, 0.99))
	r.set("server.encode_ms", encodeP50(w.bodies))
	r.set("server.ttfb_ms", quantile(ttfb, 0.5))
	r.set("server.transfer_ms", quantile(xfer, 0.5))
	r.set("server.resp_kb_mean", mean(sizes))
	r.set("server.resp_kb_p50", quantile(sizes, 0.5))
	r.set("server.dedup_frac", frac(float64(count[clsDedup]), float64(answered)))
	r.set("server.accounted_frac", frac(quantile(overhead, 0.5)+quantile(elapsed, 0.5), quantile(rtt, 0.5)))

	// Index + cache.
	r.set("cache.hit_frac", frac(float64(count[clsHit]), float64(answered)))
	r.set("cache.hit_ms", quantile(classElapsed[clsHit], 0.5))
	var missEl []float64
	for _, c := range []int{clsDecided, clsEmpty, clsNonempty} {
		missEl = append(missEl, classElapsed[c]...)
	}
	r.set("cache.miss_ms", quantile(missEl, 0.5))
	r.set("cache.hit", delta(before, after, "cache.hit"))
	r.set("cache.miss", delta(before, after, "cache.miss"))

	// Solver classes.
	r.set("core.decided_frac", frac(float64(count[clsDecided]), float64(misses)))
	r.set("core.empty_frac", frac(float64(count[clsEmpty]), float64(misses)))
	r.set("core.nonempty_frac", frac(float64(count[clsNonempty]), float64(misses)))
	r.set("core.decided_ms", quantile(classElapsed[clsDecided], 0.5))
	r.set("core.nonempty_ms", quantile(classElapsed[clsNonempty], 0.5))

	// E-PT phases from rrqd's timers, per-solve work from the re-solves.
	setEPTPhases(r, func(name string) (float64, int64) {
		a, b := after.timers[name], before.timers[name]
		return float64(a.TotalNS - b.TotalNS), a.Count - b.Count
	})
	setEPTStats(r, stats)

	// Index, WAL, checkpoints.
	hits, missesP := delta(before, after, "index.planes.hit"), delta(before, after, "index.planes.miss")
	r.set("index.planes_hit_frac", frac(hits, hits+missesP))
	r.set("index.maintain_ms", meanDelta(before, after, "phase.index.maintain"))
	r.set("index.recover_s", float64(after.timers["phase.index.recover"].TotalNS)/1e9)
	r.set("wal.fsync_us", frac(delta(before, after, "wal.sync_ns"), delta(before, after, "wal.appends"))/1e3)
	r.set("wal.bytes_per_mutation", walBytesPerMutation(w.writes))
	r.set("checkpoint.count", delta(before, after, "checkpoint.writes"))
	if spec.churn {
		r.note("writes: %d in the window, %v checkpoints, writer lag p99 %.3f ms",
			len(w.writes), delta(before, after, "checkpoint.writes"), quantile(writeLag, 0.99))
	}

	if e.trace {
		pu, pt := quantile(untraced, 0.5), quantile(traced, 0.5)
		r.set("trace.overhead_frac", frac(pt-pu, pu))
		r.note("traced slices p50 %.4f ms (n %d) vs untraced %.4f ms (n %d)", pt, len(traced), pu, len(untraced))
	}
}

// checkMix is one check operation per claim the workload makes about its
// class mix.
func checkMix(r *result, spec serveSpec, count [numClasses]int) {
	claim := func(ok bool, what string) {
		r.attempted++
		if !ok {
			r.fail("workload mix: %s (mix %v)", what, count)
		}
	}
	if spec.wantHits {
		claim(count[clsHit] > 0, "expected cache hits")
	}
	if spec.wantDecided {
		claim(count[clsDecided] > 0 && count[clsNonempty] > 0, "expected both decided and non-empty misses")
	}
	if spec.noHits {
		claim(count[clsHit] == 0 && count[clsDecided] == 0, "expected only searched misses")
	}
	claim(count[clsOther] == 0, "expected only exact hit/miss answers")
}

// oracle re-solves queries in-process on the mirrored dataset at a
// version, with the skyband prefilter the index mirrors, and remembers
// the region hashes.
type oracle struct {
	m        *mirror
	st       stream
	datasets map[uint64]*rrq.Dataset
	hashes   map[[2]uint64]uint64 // (version, query) → region hash
}

// solve returns the hash of query qid's region at version v, and the
// solver counters when it re-solved.
func (o *oracle) solve(v uint64, qid int) (uint64, rrq.Stats, error) {
	ds, ok := o.datasets[v]
	if !ok {
		var err error
		if ds, err = o.m.at(v); err != nil {
			return 0, rrq.Stats{}, err
		}
		o.datasets[v] = ds
	}
	res, err := rrq.SolveContext(context.Background(), ds, o.st.Query(qid).q, rrq.WithSkybandPrefilter(true))
	if err != nil {
		return 0, rrq.Stats{}, err
	}
	b, err := res.Region.MarshalJSON()
	if err != nil {
		return 0, rrq.Stats{}, err
	}
	h := hashRegion(b)
	o.hashes[[2]uint64{v, uint64(qid)}] = h
	return h, res.Stats, nil
}

// hash is solve's hash, re-solving only a (version, query) not seen yet.
func (o *oracle) hash(v uint64, qid int) (uint64, error) {
	if h, ok := o.hashes[[2]uint64{v, uint64(qid)}]; ok {
		return h, nil
	}
	h, _, err := o.solve(v, qid)
	return h, err
}

// overlapCount counts the reads whose label could not name their epoch.
type overlapCount struct{ reads, seen, resolved int }

// checkReads checks every answer of a window, sorted by send time, and
// returns the version each answer was computed at, the failed reads with
// their reasons, and how the reads that overlapped a write were placed.
//
// rrqd labels an answer with the index version current when it writes the
// response; the solve pinned a snapshot earlier, once the request was in.
// A read's floor is the newest version acknowledged to the writer before
// the read was sent: the snapshot cannot be older. So every answer must be
// the exact answer at a version between its floor and its label. Without
// concurrent writes the two are equal and name the epoch. Then every
// answer to one query at one version must be byte-identical: repeats,
// hits and the miss that filled the cache alike. A read that overlapped
// a write must equal an answer seen at a version in its range, or else
// the in-process re-solve at one of them.
func checkReads(w *window, st stream, o *oracle, spec serveSpec) ([]uint64, map[int]string, overlapCount) {
	epochs := make([]uint64, len(w.reads))
	bad := map[int]string{}
	var ov overlapCount
	first := map[[2]uint64]int{} // (version, query) → first read placed there
	var pending []int
	floor, next := w.v0, 0
	floors := make([]uint64, len(w.reads))
	for i, s := range w.reads {
		for ; next < len(w.writes) && w.writes[next].acked < s.at; next++ {
			floor = max(floor, w.writes[next].version)
		}
		floors[i] = floor
		if s.err != "" {
			bad[i] = s.err
			continue
		}
		q := st.Query(s.qid)
		if !spec.churn && q.decided && s.parts != 0 {
			bad[i] = fmt.Sprintf("query %d is decided by the base count but came back with %d partitions", s.qid, s.parts)
			continue
		}
		switch {
		case s.version < floor:
			bad[i] = fmt.Sprintf("query %d labelled version %d, older than version %d acknowledged before it was sent",
				s.qid, s.version, floor)
		case s.version > floor:
			pending = append(pending, i)
		default:
			epochs[i] = s.version
			key := [2]uint64{s.version, uint64(s.qid)}
			if j, ok := first[key]; !ok {
				first[key] = i
			} else if w.reads[j].hash != s.hash {
				bad[i] = fmt.Sprintf("query %d at version %d: %s answer differs from the earlier %s answer",
					s.qid, s.version, classNames[classOf(s, q)], classNames[classOf(w.reads[j], q)])
			}
		}
	}
	ov.reads = len(pending)
	for _, i := range pending {
		s := w.reads[i]
		for v := floors[i]; v <= s.version && epochs[i] == 0; v++ {
			if j, ok := first[[2]uint64{v, uint64(s.qid)}]; ok && w.reads[j].hash == s.hash {
				epochs[i] = v
				ov.seen++
			}
		}
		for v := floors[i]; v <= s.version && epochs[i] == 0; v++ {
			h, err := o.hash(v, s.qid)
			if err != nil {
				bad[i] = "re-solve: " + err.Error()
				break
			}
			if h == s.hash {
				epochs[i] = v
				ov.resolved++
			}
		}
		if epochs[i] == 0 && bad[i] == "" {
			bad[i] = fmt.Sprintf("query %d labelled version %d: answer equals the answer at no version from %d (acknowledged before it was sent) to %d",
				s.qid, s.version, floors[i], s.version)
		}
	}
	return epochs, bad, ov
}

// resolveSample re-solves a seeded sample of each class in-process on the
// dataset at the answer's version; every region must be byte-identical to
// the one rrqd sent. Mismatches mark the read failed. It returns the
// number re-solved per class and the solver counters of the searched ones.
func resolveSample(e *env, w *window, st stream, o *oracle, epochs []uint64, members [numClasses][]int, bad map[int]string) ([4]int, []rrq.Stats) {
	rng := rand.New(rand.NewSource(e.seed ^ 0x7e50))
	var done [4]int
	var stats []rrq.Stats
	for c := clsHit; c <= clsNonempty; c++ {
		idx := members[c]
		for n := 0; n < resolvePerClass && len(idx) > 0; n++ {
			j := rng.Intn(len(idx))
			i := idx[j]
			idx = append(idx[:j:j], idx[j+1:]...)
			s := w.reads[i]
			h, rs, err := o.solve(epochs[i], s.qid)
			if err != nil {
				bad[i] = "re-solve: " + err.Error()
				continue
			}
			done[c]++
			if h != s.hash {
				bad[i] = fmt.Sprintf("query %d at version %d (%s): served region differs from the in-process re-solve",
					s.qid, epochs[i], classNames[c])
				continue
			}
			if !st.Query(s.qid).decided {
				stats = append(stats, rs)
			}
		}
	}
	return done, stats
}

// setEPTPhases sets the E-PT phase means and the insert phase's share of
// their total from a phase lookup returning (total ns, observations).
func setEPTPhases(r *result, phase func(name string) (float64, int64)) {
	var total float64
	var insert float64
	for _, p := range []string{"planes", "insert", "collect"} {
		ns, n := phase("phase.ept." + p)
		r.set("ept."+p+"_ms", frac(ns, float64(n))/1e6)
		total += ns
		if p == "insert" {
			insert = ns
		}
	}
	r.set("ept.insert_share", frac(insert, total))
}

// setEPTStats sets the per-solve E-PT work counters, averaged over solves
// that searched.
func setEPTStats(r *result, stats []rrq.Stats) {
	var agg rrq.Stats
	for _, s := range stats {
		agg.Add(s)
	}
	n := float64(len(stats))
	r.set("ept.planes_built", frac(float64(agg.PlanesBuilt), n))
	r.set("ept.planes_inserted", frac(float64(agg.PlanesInserted), n))
	r.set("ept.nodes_created", frac(float64(agg.NodesCreated), n))
	r.set("ept.splits", frac(float64(agg.Splits), n))
	r.set("ept.pieces", frac(float64(agg.Pieces), n))
}

// encodeP50 re-times rrqd's response encoding on received bodies: the
// region is decoded outside the timer, then its MarshalJSON and the
// envelope encoding — what the server does per response — are timed.
func encodeP50(bodies [][]byte) float64 {
	var out []float64
	for _, b := range bodies {
		h, raw, err := splitSolve(b)
		if err != nil {
			continue
		}
		var reg core.Region
		if err := reg.UnmarshalJSON(raw); err != nil {
			continue
		}
		start := time.Now()
		enc, err := reg.MarshalJSON()
		if err != nil {
			continue
		}
		env := struct {
			Version    uint64          `json:"version"`
			Partitions int             `json:"partitions"`
			ElapsedMS  float64         `json:"elapsed_ms"`
			Cache      string          `json:"cache"`
			Tier       string          `json:"tier"`
			Region     json.RawMessage `json:"region"`
		}{h.Version, h.Partitions, h.ElapsedMS, h.Cache, "exact", enc}
		if err := json.NewEncoder(io.Discard).Encode(env); err != nil {
			continue
		}
		out = append(out, ms(time.Since(start)))
	}
	return quantile(out, 0.5)
}

// walBytesPerMutation is the mean size of the WAL records the window's
// acknowledged writes append, from the WAL's own record encoder.
func walBytesPerMutation(writes []writeSample) float64 {
	var total, n float64
	for _, ws := range writes {
		if ws.err != "" {
			continue
		}
		rec := wal.Record{Op: wal.OpDelete, Index: ws.mu.index}
		if ws.mu.insert {
			rec = wal.Record{Op: wal.OpInsert, Point: ws.mu.point}
		}
		total += float64(len(wal.Encode(rec)))
		n++
	}
	return frac(total, n)
}
