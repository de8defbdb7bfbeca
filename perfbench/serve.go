package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rrq/internal/vec"
)

// serveSpec describes one workload against rrqd.
type serveSpec struct {
	n, d      int
	readers   int           // /v1/solve callers
	readRate  int           // reads per second across the callers; 0: closed loop
	warmup    time.Duration // unmeasured traffic before the window
	warmReads int           // and at least this many warm-up requests
	newStream func(pts []vec.Vec, seed int64) stream
	churn     bool // durable rrqd, crash-recovery set-up and an open-loop writer
	// The class mix the workload claims. A run whose mix breaks its claim
	// measures something else, and fails a check.
	wantHits, wantDecided, noHits bool
}

const (
	setupStarts   = 11                     // rrqd starts per run; setup_s is their median
	writeRate     = 50                     // churn writer, mutations per second
	churnReadRate = 100                    // churn reader, reads per second
	coldFill      = 1100                   // cold warm-up requests: more than rrqd's 1024-entry cache holds
	seedMutations = 320                    // churn writes before the crash: a checkpoint at 256, a WAL tail of 64
	traceSlice    = 500 * time.Millisecond // traced runs alternate untraced and traced slices this long
	keepBodies    = 32                     // bodies each reader keeps for re-timing the encoder
)

func zipfStreamOf(pts []vec.Vec, seed int64) stream { return newZipfStream(pts, 4096, 1.1, seed) }

func runZipf(e *env, r *result) error {
	return runServe(e, r, serveSpec{n: 5000, d: 3, readers: 2, warmup: 2 * time.Second,
		newStream: zipfStreamOf, wantHits: true, wantDecided: true})
}

func runCold(e *env, r *result) error {
	return runServe(e, r, serveSpec{n: 2000, d: 4, readers: 2, warmup: time.Second, warmReads: coldFill,
		newStream: func(pts []vec.Vec, seed int64) stream { return newColdStream(pts, 5, 0.1, seed) },
		noHits:    true})
}

func runChurn(e *env, r *result) error {
	return runServe(e, r, serveSpec{n: 5000, d: 3, readers: 1, readRate: churnReadRate, warmup: time.Second,
		newStream: zipfStreamOf, churn: true})
}

// runServe generates the workload, starts rrqd (several times, for
// setup_s), measures the window and checks every answer.
func runServe(e *env, r *result, spec serveSpec) error {
	d, err := makeData(filepath.Join(e.work, "data.csv"), spec.n, spec.d, workloadSeed)
	if err != nil {
		return err
	}
	st := spec.newStream(d.pts, e.seed)
	logPath := filepath.Join(e.work, "rrqd.log")
	m := &mirror{base: d.pts, baseVersion: 1}

	var p *proc
	if spec.churn {
		p, err = churnSetup(e, r, d, m, logPath)
	} else {
		p, err = setupTrials(r, func(int) (*proc, time.Duration, error) {
			return startRRQD(e.rrqd, logPath, "-data", d.csv)
		})
	}
	if err != nil {
		return err
	}

	if err := measure(e, r, p.base, st, m, spec, p.cmd.Process.Pid); err != nil {
		return err
	}
	return p.stop(syscall.SIGTERM)
}

// churnSetup builds the crash image churn-3d recovers from, then times
// rrqd's recovery from copies of it. A first rrqd seeds a WAL directory
// from the CSV and acknowledges seedMutations writes (an automatic
// checkpoint at 256, a WAL tail beyond it), then is SIGKILLed. Each trial
// restarts rrqd on a fresh copy of that directory, with no dataset flag;
// the last one serves the window.
func churnSetup(e *env, r *result, d *data, m *mirror, logPath string) (*proc, error) {
	image := filepath.Join(e.work, "crash-image")
	seeder, _, err := startRRQD(e.rrqd, logPath, "-data", d.csv, "-wal-dir", image)
	if err != nil {
		return nil, err
	}
	client := newHTTPClient(1)
	defer client.CloseIdleConnections()
	st, err := getStats(client, seeder.base)
	if err != nil {
		return nil, err
	}
	m.baseVersion = st.Index.Version
	for i := 0; i < seedMutations; i++ {
		if err := applyMutation(client, seeder.base, m, mutationAt(i, len(d.pts), len(d.pts[0]))); err != nil {
			return nil, fmt.Errorf("seeding the crash image: %w", err)
		}
	}
	if err := seeder.stop(syscall.SIGKILL); err != nil {
		return nil, err
	}

	return setupTrials(r, func(trial int) (*proc, time.Duration, error) {
		dir := filepath.Join(e.work, fmt.Sprintf("recover-%d", trial))
		if err := copyDir(image, dir); err != nil {
			return nil, 0, err
		}
		p, took, err := startRRQD(e.rrqd, logPath, "-wal-dir", dir)
		if err == nil {
			checkStats(r, client, p.base, m, "after crash recovery")
		}
		return p, took, err
	})
}

// setupTrials starts rrqd setupStarts times. Every start but the last is
// SIGKILLed as soon as /healthz answers 200, and the kernel's account of
// its CPU time, taken when it is reaped, is its set-up work; the last
// start serves the window. setup_s is the median set-up CPU time: on a
// shared VM the hypervisor steals up to half the CPU for minutes at a
// time, which stretches wall time but is not charged to the process.
// setup_wall_s, the median time from launch to /healthz 200, is kept as
// a per-layer metric.
func setupTrials(r *result, start func(trial int) (*proc, time.Duration, error)) (*proc, error) {
	var cpu, wall []time.Duration
	var p *proc
	for trial := 0; trial < setupStarts; trial++ {
		if p != nil {
			if err := p.stop(syscall.SIGKILL); err != nil {
				return nil, err
			}
			ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
			if !ok {
				return nil, errors.New("no resource usage for a reaped rrqd")
			}
			cpu = append(cpu, time.Duration(ru.Utime.Nano()+ru.Stime.Nano()))
		}
		var took time.Duration
		var err error
		if p, took, err = start(trial); err != nil {
			return nil, err
		}
		wall = append(wall, took)
	}
	r.set("setup_s", median(cpu).Seconds())
	r.set("setup_wall_s", median(wall).Seconds())
	r.note("setup: %d rrqd starts to /healthz 200; CPU median %v over the %d killed there, wall median %v",
		len(wall), median(cpu), len(cpu), median(wall))
	return p, nil
}

// applyMutation sends one write. An acknowledged write enters the mirror
// whatever version it reports; a version other than the next one is an
// error.
func applyMutation(client *http.Client, base string, m *mirror, mu mutation) error {
	path := "/v1/delete"
	if mu.insert {
		path = "/v1/insert"
	}
	var ack struct {
		Version uint64 `json:"version"`
	}
	if err := post(client, base+path, mu.body, &ack); err != nil {
		return err
	}
	want := m.baseVersion + uint64(len(m.log)) + 1
	m.log = append(m.log, mu)
	if ack.Version != want {
		return fmt.Errorf("%s acknowledged version %d, want %d", path, ack.Version, want)
	}
	return nil
}

// checkStats is one check operation: /v1/stats must report the version and
// point count of every acknowledged write.
func checkStats(r *result, client *http.Client, base string, m *mirror, when string) {
	r.attempted++
	st, err := getStats(client, base)
	if err != nil {
		r.fail("/v1/stats %s: %v", when, err)
		return
	}
	wantV := m.baseVersion + uint64(len(m.log))
	wantN := len(m.base)
	for _, mu := range m.log {
		if mu.insert {
			wantN++
		} else {
			wantN--
		}
	}
	if st.Index.Version != wantV || st.Index.Points != wantN {
		r.fail("/v1/stats %s: version %d with %d points, want version %d with %d points (an acknowledged write is missing)",
			when, st.Index.Version, st.Index.Points, wantV, wantN)
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, ent.Name())
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeSample is one churn write: latency is timed from when the write was
// due, lag is how late the generator sent it. An acknowledged write
// records the version it published and when its acknowledgement arrived,
// from the start of the window.
type writeSample struct {
	mu       mutation
	lat, lag time.Duration
	acked    time.Duration
	version  uint64
	err      string
}

// window is what one measured window produced.
type window struct {
	v0     uint64 // version served when the window opened
	dur    time.Duration
	cpu    time.Duration // server CPU time spent in the window
	reads  []sample
	writes []writeSample
	bodies [][]byte // a sample of received /v1/solve bodies (traced runs)
}

// measure drives a running server, process pid, through warm-up and the
// measured window, then checks and summarizes everything it received.
func measure(e *env, r *result, base string, st stream, m *mirror, spec serveSpec, pid int) error {
	client := newHTTPClient(spec.readers + 1)
	defer client.CloseIdleConnections()
	var next atomic.Int64
	warm := time.Now()
	readLoop(client, base, st, &next, spec, warm, warm.Add(spec.warmup), false, e.seed)
	for next.Load() < int64(spec.warmReads) {
		now := time.Now()
		readLoop(client, base, st, &next, spec, now, now.Add(time.Second), false, e.seed)
	}

	before, err := getMetrics(client, base)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	start := time.Now()
	end := start.Add(e.seconds)
	steal, err := sampleSteal(start, end)
	if err != nil {
		return err
	}
	rss := sampleRSS(pid, end)
	w := window{v0: m.baseVersion + uint64(len(m.log))}
	var wg sync.WaitGroup
	if spec.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.writes = writeLoop(client, base, m, start, end)
		}()
	}
	w.reads, w.bodies = readLoop(client, base, st, &next, spec, start, end, e.trace, e.seed)
	wg.Wait()
	w.dur = time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	w.cpu = cpu1 - cpu0
	if err := rss.set(r, pid); err != nil {
		return err
	}
	if err := steal.note(r, w.dur); err != nil {
		return err
	}
	after, err := getMetrics(client, base)
	if err != nil {
		return err
	}
	if spec.churn {
		checkStats(r, client, base, m, "after the window")
	}
	analyzeServe(e, r, &w, st, m, spec, before, after)
	return nil
}

// readLoop runs spec.readers callers until end and returns their samples
// when traced or measuring. Request i of the run asks st.Next(i). Each
// caller sends its next request when the previous one is answered, or,
// under a read rate, when it is due or at once if the caller is late.
func readLoop(client *http.Client, base string, st stream, next *atomic.Int64, spec serveSpec,
	start, end time.Time, trace bool, seed int64) ([]sample, [][]byte) {
	type out struct {
		samples []sample
		bodies  [][]byte
	}
	n := spec.readers
	outs := make([]out, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &solver{client: client, url: base}
			rng := rand.New(rand.NewSource(seed + int64(c)))
			var o out
			seen := 0
			for sent := 0; ; sent++ {
				if spec.readRate > 0 {
					due := start.Add(time.Duration(sent*n) * time.Second / time.Duration(spec.readRate))
					if !due.Before(end) {
						break
					}
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
				}
				now := time.Now()
				if !now.Before(end) {
					break
				}
				id := st.Next(int(next.Add(1) - 1))
				q := st.Query(id)
				traced := trace && (now.Sub(start)/traceSlice)%2 == 1
				// Reservoir-sample bodies for re-timing the encoder.
				var keep *[]byte
				if trace {
					seen++
					if len(o.bodies) < keepBodies {
						o.bodies = append(o.bodies, nil)
						keep = &o.bodies[len(o.bodies)-1]
					} else if j := rng.Intn(seen); j < keepBodies {
						keep = &o.bodies[j]
					}
				}
				o.samples = append(o.samples, s.solve(id, q.body, start, traced, keep))
			}
			outs[c] = o
		}(c)
	}
	wg.Wait()
	var samples []sample
	var bodies [][]byte
	for _, o := range outs {
		samples = append(samples, o.samples...)
		for _, b := range o.bodies {
			if len(b) > 0 {
				bodies = append(bodies, b)
			}
		}
	}
	return samples, bodies
}

// writeLoop is churn's open-loop writer: write i is due at start + i/rate,
// alternating inserts and deletes, sent when due or at once when the
// previous write made it late.
func writeLoop(client *http.Client, base string, m *mirror, start, end time.Time) []writeSample {
	var out []writeSample
	n, d := len(m.base), len(m.base[0])
	first := len(m.log)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / writeRate)
		if !due.Before(end) {
			return out
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		mu := mutationAt(first+i, n, d)
		ws := writeSample{mu: mu, lag: sent.Sub(due)}
		if err := applyMutation(client, base, m, mu); err != nil {
			ws.err = err.Error()
		} else {
			ws.acked = time.Since(start)
			ws.version = m.baseVersion + uint64(len(m.log))
		}
		ws.lat = time.Since(due)
		out = append(out, ws)
	}
}
