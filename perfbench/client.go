package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"time"
)

// hashSeed keys every region hash of one run; hashes are only compared
// within the process that made them.
var hashSeed = maphash.MakeSeed()

func hashRegion(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// newHTTPClient returns a keep-alive loopback client for conns concurrent
// callers. Proxy is left nil: the benchmark talks to rrqd directly.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// Cache statuses as rrqd reports them.
const (
	statusMiss uint8 = iota
	statusHit
	statusOther
)

// sample is one /v1/solve exchange as the client saw it. Only fixed-size
// fields: the region is kept as a hash.
type sample struct {
	qid     int
	at      time.Duration // send time, from the start of the window
	rtt     time.Duration // send to last body byte
	ttfb    time.Duration // request written to first response byte (traced only)
	xfer    time.Duration // first to last response byte (traced only)
	version uint64
	hash    uint64
	size    int
	parts   int
	elapsed float64 // server-side elapsed_ms
	cache   uint8
	deduped bool
	traced  bool
	err     string // non-empty: transport error, non-2xx or malformed body
}

// solveHeader is the part of the /v1/solve body before the region.
type solveHeader struct {
	Version    uint64  `json:"version"`
	Partitions int     `json:"partitions"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Cache      string  `json:"cache"`
	Deduped    bool    `json:"deduped"`
}

var regionKey = []byte(`"region":`)

// splitSolve separates a /v1/solve body into its envelope fields and the
// raw region bytes, without decoding the region. The region is the last
// field of the envelope, and a quote inside a JSON string is escaped, so
// the first `"region":` in the body is the envelope's.
func splitSolve(body []byte) (solveHeader, []byte, error) {
	var h solveHeader
	i := bytes.Index(body, regionKey)
	if i < 0 {
		return h, nil, errors.New("response has no region")
	}
	region := bytes.TrimRight(body[i+len(regionKey):], " \r\n")
	if len(region) == 0 || region[len(region)-1] != '}' {
		return h, nil, errors.New("response envelope not closed after region")
	}
	region = region[:len(region)-1]
	head := append(append([]byte{}, body[:i]...), `"region":null}`...)
	if err := json.Unmarshal(head, &h); err != nil {
		return h, nil, fmt.Errorf("response envelope: %w", err)
	}
	return h, region, nil
}

// solver sends /v1/solve requests for one closed-loop caller, reusing its
// read buffer across requests.
type solver struct {
	client *http.Client
	url    string
	buf    bytes.Buffer
}

// solve sends one request and records it. The timer covers sending the
// request through reading the last body byte; parsing and hashing happen
// after it stops. keep, when set, receives a copy of the body.
func (s *solver) solve(qid int, body []byte, windowStart time.Time, traced bool, keep *[]byte) sample {
	sm := sample{qid: qid, traced: traced}
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		sm.err = err.Error()
		return sm
	}
	var wrote, first time.Time
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	start := time.Now()
	sm.at = start.Sub(windowStart)
	resp, err := s.client.Do(req)
	if err != nil {
		sm.err = err.Error()
		return sm
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	sm.rtt = end.Sub(start)
	if traced && !wrote.IsZero() && !first.IsZero() {
		sm.ttfb = first.Sub(wrote)
		sm.xfer = end.Sub(first)
	}
	if err != nil {
		sm.err = err.Error()
		return sm
	}
	b := s.buf.Bytes()
	sm.size = len(b)
	if resp.StatusCode != http.StatusOK {
		sm.err = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		return sm
	}
	h, region, err := splitSolve(b)
	if err != nil {
		sm.err = err.Error()
		return sm
	}
	sm.version, sm.parts, sm.elapsed, sm.deduped = h.Version, h.Partitions, h.ElapsedMS, h.Deduped
	switch h.Cache {
	case "miss":
		sm.cache = statusMiss
	case "hit":
		sm.cache = statusHit
	default:
		sm.cache = statusOther
	}
	sm.hash = hashRegion(region)
	if keep != nil {
		*keep = append((*keep)[:0], b...)
	}
	return sm
}

// post sends a small JSON request and decodes the JSON answer into out.
func post(client *http.Client, url string, body []byte, out any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

// indexStats is the part of /v1/stats the checks read.
type indexStats struct {
	Index struct {
		Version uint64
		Points  int
	} `json:"index"`
}

func getStats(client *http.Client, base string) (indexStats, error) {
	var st indexStats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// timerSnap is the part of an rrqd timer histogram the benchmark reads.
type timerSnap struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
}

// scrape is one reading of rrqd's /metrics page: counters and gauges by
// value, timers by count and total.
type scrape struct {
	values map[string]float64
	timers map[string]timerSnap
}

func getMetrics(client *http.Client, base string) (scrape, error) {
	sc := scrape{values: map[string]float64{}, timers: map[string]timerSnap{}}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return sc, err
	}
	if resp.StatusCode != http.StatusOK {
		return sc, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return sc, sc.parse(string(b))
}

// parse reads the registry's text exposition: one "name: value" line per
// metric, where a timer's value is a JSON object.
func (sc scrape) parse(text string) error {
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		if strings.HasPrefix(val, "{") {
			var t timerSnap
			if err := json.Unmarshal([]byte(val), &t); err != nil {
				return fmt.Errorf("/metrics %s: %w", name, err)
			}
			sc.timers[name] = t
			continue
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("/metrics %s: %w", name, err)
		}
		sc.values[name] = x
	}
	return nil
}

// delta is the change of a counter between two scrapes.
func delta(before, after scrape, name string) float64 {
	return after.values[name] - before.values[name]
}

// meanDelta is the mean duration, in ms, of the timer observations made
// between two scrapes; 0 when there were none.
func meanDelta(before, after scrape, name string) float64 {
	a, b := after.timers[name], before.timers[name]
	n := a.Count - b.Count
	if n <= 0 {
		return 0
	}
	return float64(a.TotalNS-b.TotalNS) / float64(n) / 1e6
}
