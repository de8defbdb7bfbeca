package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running rrqd child.
type proc struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

var (
	procsMu sync.Mutex
	procs   = map[*proc]bool{}
)

// stopAll kills every rrqd still running and waits for each to exit.
func stopAll() {
	procsMu.Lock()
	live := make([]*proc, 0, len(procs))
	for p := range procs {
		live = append(live, p)
	}
	procsMu.Unlock()
	for _, p := range live {
		_ = p.stop(syscall.SIGKILL)
	}
}

// freePort asks the kernel for an unused loopback port. Another process
// could take it before rrqd binds; startRRQD retries when that happens.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startRRQD launches rrqd with args on a fresh loopback port and returns
// once /healthz answers 200, together with the time from launch to that
// answer. logPath receives the process's output.
func startRRQD(bin, logPath string, args ...string) (*proc, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		p, took, err := tryStart(bin, logPath, args)
		if err == nil {
			return p, took, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStart(bin, logPath string, args []string) (*proc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	p := &proc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	procsMu.Lock()
	procs[p] = true
	procsMu.Unlock()
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()

	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("rrqd %v exited before becoming healthy: %v (log %s)", args, p.err, logPath)
		default:
		}
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	_ = p.stop(syscall.SIGKILL)
	return nil, 0, errors.New("rrqd did not become healthy within 60s")
}

// stop signals the process and waits until it has exited; SIGTERM gets
// ten seconds before it is followed by SIGKILL.
func (p *proc) stop(sig syscall.Signal) error {
	defer func() {
		procsMu.Lock()
		delete(procs, p)
		procsMu.Unlock()
	}()
	select {
	case <-p.done:
		return nil
	default:
	}
	if err := p.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-p.done:
		return nil
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return errors.New("rrqd ignored SIGTERM for 10s and was killed")
	}
}

// statusMB reads a memory field of a process's /proc status, such as
// "VmRSS:" or "VmHWM:", in MiB (pid 0 means this process).
func statusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// rssEvery is how often a window samples the serving process's resident
// set.
const rssEvery = 100 * time.Millisecond

// rssSampler reads a process's resident set every rssEvery until a
// window ends.
type rssSampler struct {
	done chan []float64
	err  error // set before done receives
}

func sampleRSS(pid int, end time.Time) *rssSampler {
	s := &rssSampler{done: make(chan []float64, 1)}
	go func() {
		var out []float64
		for time.Now().Before(end) {
			mb, err := statusMB(pid, "VmRSS:")
			if err != nil {
				s.err = err
				break
			}
			out = append(out, mb)
			time.Sleep(rssEvery)
		}
		s.done <- out
	}()
	return s
}

// set waits for the samples and records their median as rss_mb, and the
// process's high-water mark as peak_rss_mb.
func (s *rssSampler) set(r *result, pid int) error {
	out := <-s.done
	if s.err != nil {
		return s.err
	}
	if len(out) == 0 {
		return errors.New("no resident set samples in the window")
	}
	peak, err := statusMB(pid, "VmHWM:")
	if err != nil {
		return err
	}
	r.set("rss_mb", quantile(out, 0.5))
	r.set("peak_rss_mb", peak)
	r.note("resident set: median %.1f MB over %d samples (%.1f..%.1f), high-water mark %.1f MB",
		quantile(out, 0.5), len(out), quantile(out, 0), quantile(out, 1), peak)
	return nil
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat, fixed by the
// kernel ABI.
const userHZ = 100

// procCPU returns the user plus system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past its closing parenthesis. utime and stime are fields 14 and 15.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// selfCPU returns the user plus system CPU time of this process.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTimes reads the machine-wide busy and stolen CPU ticks from
// /proc/stat, so a run can say how much CPU the hypervisor took away.
func cpuTimes() (busy, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0, err
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// stealSampler watches the machine during a window: how busy its CPUs
// were, and the share of CPU time the hypervisor stole, overall and for
// each whole second.
type stealSampler struct {
	busy0, steal0 int64
	done          chan []float64
}

// sampleSteal starts watching at start; the per-second sampling stops at
// end.
func sampleSteal(start, end time.Time) (*stealSampler, error) {
	busy, steal, err := cpuTimes()
	if err != nil {
		return nil, err
	}
	s := &stealSampler{busy0: busy, steal0: steal, done: make(chan []float64, 1)}
	go func() {
		var out []float64
		b0, s0 := busy, steal
		for t := start.Add(time.Second); !t.After(end); t = t.Add(time.Second) {
			time.Sleep(time.Until(t))
			b1, s1, err := cpuTimes()
			if err != nil {
				break
			}
			out = append(out, frac(float64(s1-s0), float64(b1-b0+s1-s0)))
			b0, s0 = b1, s1
		}
		s.done <- out
	}()
	return s, nil
}

// note waits for the per-second samples and records the window's machine
// state in the run's notes.
func (s *stealSampler) note(r *result, window time.Duration) error {
	perSec := <-s.done
	busy, steal, err := cpuTimes()
	if err != nil {
		return err
	}
	db, ds := float64(busy-s.busy0), float64(steal-s.steal0)
	r.note("machine during the window: %.0f%% busy, %.1f%% of CPU time stolen by the hypervisor (per second %.0f..%.0f%%, median %.0f%%)",
		100*frac(db/userHZ, float64(runtime.NumCPU())*window.Seconds()), 100*frac(ds, db+ds),
		100*quantile(perSec, 0), 100*quantile(perSec, 1), 100*quantile(perSec, 0.5))
	return nil
}
