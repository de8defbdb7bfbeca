// Command perfbench is the repository's benchmark. It drives the real rrqd
// binary over loopback and the library's batch path in-process, checks
// every answer it receives, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds rrqd and this program):
//
//	perfbench -rrqd ./rrqd -work ./run --workload serve-zipf-3d --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics. README.md next to this file explains
// each workload and defines each metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json at the repository root (a test checks this).
type metricDef struct{ name, unit string }

// endToEnd are the costs an operator of rrqd or a caller of the batch API
// pays, and the gated metrics. Every workload reports all of them, so
// each is defined on every workload. They are measured in CPU time and
// memory rather than wall time: on the shared VMs this benchmark runs on,
// hypervisor steal moves wall-clock figures by up to 2× between runs
// minutes apart (README.md, Steadiness).
var endToEnd = []metricDef{
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0, next to a count that says so.
var perLayer = []metricDef{
	// Wall-clock figures users see, too steal-bound on a shared VM to gate.
	{"solve_qps", "1/s"},
	{"solve_p50_ms", "ms"},
	{"solve_tail_ms", "ms"},
	{"setup_wall_s", "s"},
	{"peak_rss_mb", "MB"},
	// Query classes and their client round trips.
	{"error_rate", "ratio"},
	{"hit_p50_ms", "ms"},
	{"hit_n", "count"},
	{"decided_miss_p50_ms", "ms"},
	{"decided_miss_n", "count"},
	{"nonempty_miss_p50_ms", "ms"},
	{"nonempty_miss_n", "count"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p99_ms", "ms"},
	{"mutate_n", "count"},
	{"batch_p50_ms", "ms"},
	// internal/server.
	{"server.overhead_p50_ms", "ms"},
	{"server.overhead_p99_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.ttfb_ms", "ms"},
	{"server.transfer_ms", "ms"},
	{"server.resp_kb_p50", "KB"},
	{"server.resp_kb_mean", "KB"},
	{"server.dedup_frac", "ratio"},
	{"server.accounted_frac", "ratio"},
	// rrq Index + internal/cache.
	{"cache.hit_frac", "ratio"},
	{"cache.hit_ms", "ms"},
	{"cache.miss_ms", "ms"},
	{"cache.hit", "count"},
	{"cache.miss", "count"},
	// internal/core query classes (solver side).
	{"core.decided_frac", "ratio"},
	{"core.empty_frac", "ratio"},
	{"core.nonempty_frac", "ratio"},
	{"core.decided_ms", "ms"},
	{"core.nonempty_ms", "ms"},
	// internal/core E-PT.
	{"ept.planes_ms", "ms"},
	{"ept.insert_ms", "ms"},
	{"ept.collect_ms", "ms"},
	{"ept.insert_share", "ratio"},
	{"ept.planes_built", "count"},
	{"ept.planes_inserted", "count"},
	{"ept.nodes_created", "count"},
	{"ept.splits", "count"},
	{"ept.pieces", "count"},
	// internal/index.
	{"index.planes_hit_frac", "ratio"},
	{"index.maintain_ms", "ms"},
	{"index.recover_s", "s"},
	// internal/wal and checkpoints.
	{"wal.fsync_us", "us"},
	{"wal.bytes_per_mutation", "B"},
	{"checkpoint.count", "count"},
	// Batch path (rrq.Prepare, core/share.go).
	{"batch.prepare_ms", "ms"},
	{"batch.solve_ms", "ms"},
	{"batch.dedup_frac", "ratio"},
	{"batch.allocs_per_query", "count"},
	{"batch.bytes_per_query", "B"},
	// The load generator itself.
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// env is what every workload receives: the run's parameters and where to
// find rrqd and put its files.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	rrqd    string
	work    string // working directory for this run; removed at exit
}

// result accumulates one run: operations attempted and failed, the first
// failure reasons, the metric values and human-readable notes.
type result struct {
	attempted int
	failed    int
	reasons   []string
	metrics   map[string]float64
	notes     []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail counts one failed operation and keeps its reason (the first few).
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.reasons) < 10 {
		r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// errorRate is failed operations over attempted ones.
func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// workloads maps each workload name to the function that runs it.
// README.md gives the rationale for each.
var workloads = map[string]func(e *env, r *result) error{
	"serve-zipf-3d": runZipf,
	"serve-cold-4d": runCold,
	"churn-3d":      runChurn,
	"batch-3d":      runBatch,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 10, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		rrqdBin  = flag.String("rrqd", "", "path to the rrqd binary")
		work     = flag.String("work", "", "working directory for this run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *rrqdBin == "" || *work == "" {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -rrqd, -work, --seconds ≥ 1, --trace 0|1 and --workload one of %s\n",
			strings.Join(names, ", "))
		os.Exit(2)
	}
	runDir = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, rrqd: *rrqdBin, work: runDir}

	// A signal must not leave rrqd running: stop every child, then exit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fatal(errors.New("interrupted"))
	}()

	r := newResult()
	err := run(e, r)
	stopAll()
	os.RemoveAll(runDir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	r.set("error_rate", r.errorRate())
	emit(os.Stdout, *workload, e.trace, r)
}

// emit prints the human-readable summary, then the JSON result line.
func emit(w *os.File, workload string, traced bool, r *result) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, error_rate %.6g\n",
		workload, r.attempted, r.failed, r.errorRate())
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, reason := range r.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", reason)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		out.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(b))
}

// runDir holds this run's files; it is removed however the run ends.
var runDir string

func fatal(err error) {
	stopAll()
	if runDir != "" {
		os.RemoveAll(runDir)
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
