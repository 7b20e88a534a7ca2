package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// minSamples is the least number of samples of each request class a run
// collects, which puts at least ten beyond its p90.
const minSamples = 100

// result is the outcome of one request.
type result struct {
	seq     int64 // global send order
	req     request
	lat     time.Duration
	status  int
	err     string
	version uint64 // data version the answer was computed at
	wallNs  int64  // flockd's evaluation wall time
	answer  string // canonical rows
	ins     int    // mutate: rows inserted
	raw     []byte // response body until decoded
}

func (r *result) ok() bool { return r.err == "" && r.status == http.StatusOK }

type evalResponse struct {
	Rows   [][]string `json:"rows"`
	WallNs int64      `json:"wall_ns"`
	Report struct {
		Caches *struct {
			DBVersion uint64 `json:"db_version"`
		} `json:"caches"`
	} `json:"report"`
}

type mutateResponse struct {
	Inserted int    `json:"inserted"`
	Version  uint64 `json:"version"`
}

// httpTarget sends requests to one flockd.
type httpTarget struct {
	base    string
	handles map[string]string // flock ID -> prepared handle
	client  *http.Client
}

func newTarget(base string, conns int) *httpTarget {
	return &httpTarget{
		base:    base,
		handles: map[string]string{},
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}, Timeout: 120 * time.Second},
	}
}

func (h *httpTarget) close() { h.client.CloseIdleConnections() }

func (h *httpTarget) post(path string, body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// prepare registers a flock and records its handle.
func (h *httpTarget) prepare(id, src string) error {
	status, body, err := h.post("/prepare", []byte(src))
	if err != nil {
		return err
	}
	var pr struct {
		Handle string `json:"handle"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &pr) != nil {
		return fmt.Errorf("prepare %s: status %d: %s", id, status, body)
	}
	h.handles[id] = pr.Handle
	return nil
}

// do sends one request; the latency covers sending and reading the
// whole response. The body is decoded later (see decode).
func (h *httpTarget) do(req request) result {
	var path string
	var body []byte
	switch req.Kind {
	case "query":
		path = "/query?strategy=" + req.Strategy
		if req.NoCache {
			path += "&cache=0"
		}
		body = []byte(req.Src)
	case "invoke":
		path = "/invoke/" + h.handles[req.Flock] + "?strategy=" + req.Strategy
		if req.NoCache {
			path += "&cache=0"
		}
		body = []byte(fmt.Sprintf(`{"threshold":%d}`, req.Threshold))
	case "mutate":
		path = "/mutate/" + req.Rel
		body = csvBody(req.Rows)
	}
	t0 := time.Now()
	status, raw, err := h.post(path, body)
	res := result{req: req, lat: time.Since(t0), status: status, raw: raw}
	switch {
	case err != nil:
		res.err = err.Error()
	case status != http.StatusOK:
		res.err = fmt.Sprintf("status %d: %.200s", status, raw)
	}
	return res
}

// decode parses a successful response body. The closed loop defers it
// until after the timed window, so the client spends no processor time
// between requests that flockd could use.
func (r *result) decode() {
	raw := r.raw
	r.raw = nil
	if r.err != "" {
		return
	}
	if r.req.Kind == "mutate" {
		var mr mutateResponse
		if err := json.Unmarshal(raw, &mr); err != nil {
			r.err = err.Error()
		}
		r.version, r.ins = mr.Version, mr.Inserted
		return
	}
	var er evalResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Report.Caches == nil {
		r.err = fmt.Sprintf("bad response: %v", err)
		return
	}
	r.version, r.wallNs = er.Report.Caches.DBVersion, er.WallNs
	r.answer = canonRows(er.Rows)
}

func csvBody(rows [][]string) []byte {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// closedLoop runs one goroutine per client, each sending its next
// request as soon as the previous one completes. It stops once dur has
// passed and every request class has minSamples samples, or at limit.
// Results come back in send order.
func closedLoop(h *httpTarget, gens []func() request, dur, limit time.Duration) ([]result, time.Duration) {
	var (
		seq    atomic.Int64
		counts [3]atomic.Int64
		mu     sync.Mutex
		all    []result
		wg     sync.WaitGroup
	)
	classes := map[string]int{"query": 0, "invoke": 1, "mutate": 2}
	start := time.Now()
	done := func() bool {
		el := time.Since(start)
		if el >= limit {
			return true
		}
		if el < dur {
			return false
		}
		for i := range counts {
			if counts[i].Load() < minSamples {
				return false
			}
		}
		return true
	}
	for _, gen := range gens {
		wg.Add(1)
		go func(gen func() request) {
			defer wg.Done()
			var mine []result
			for !done() {
				req := gen()
				n := seq.Add(1)
				r := h.do(req)
				r.seq = n
				counts[classes[req.Kind]].Add(1)
				mine = append(mine, r)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(gen)
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for i := range all {
		all[i].decode()
	}
	return all, elapsed
}
