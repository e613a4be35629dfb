package main

// The closed-loop load generator: each client sends its next request
// only after the previous reply has been read, as editors and CI
// scripts do. During the timed window a client only sends and records;
// bodies are kept once per distinct content and checked afterwards.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// sample is one timed request as the client saw it.
type sample struct {
	req    request
	status int // 0 on a transport error
	lat    time.Duration
	at     time.Duration // completion, from the window's start
	durNS  int64         // the response's duration_ns; -1 when absent
	hash   uint64        // body hash with volatile fields removed
}

// reply identifies one distinct answer: the request key and the
// content hash of the body answering it.
type reply struct {
	key  int
	hash uint64
}

// bodies keeps the first body seen for each distinct reply, with the
// request it answered.
type bodies struct {
	mu sync.Mutex
	m  map[reply]storedBody
}

type storedBody struct {
	req  request
	body []byte
}

func (b *bodies) add(rp reply, req request, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[rp]; !ok {
		b.m[rp] = storedBody{req: req, body: append([]byte(nil), body...)}
	}
}

var hashSeed = maphash.MakeSeed()

// volatileFields are the top-level response fields that legitimately
// differ between repeats of one request: delivery metadata, not
// content.
var volatileFields = [][]byte{[]byte(`  "request": `), []byte(`  "duration_ns": `)}

// contentHash hashes an indented JSON response with its volatile
// top-level lines removed, and returns duration_ns (-1 if absent).
func contentHash(body []byte) (h uint64, durNS int64) {
	var mh maphash.Hash
	mh.SetSeed(hashSeed)
	durNS = -1
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		line := body
		if i >= 0 {
			line, body = body[:i+1], body[i+1:]
		} else {
			body = nil
		}
		skip := false
		for vi, f := range volatileFields {
			if bytes.HasPrefix(line, f) {
				skip = true
				if vi == 1 {
					v := bytes.TrimRight(line[len(f):], ",\n")
					if n, err := strconv.ParseInt(string(v), 10, 64); err == nil {
						durNS = n
					}
				}
			}
		}
		if !skip {
			mh.Write(line)
		}
	}
	return mh.Sum64(), durNS
}

// target is where a workload's requests go.
type target struct {
	base     string
	sessions []string // edit-session: session ID per client
}

// buildRequest turns a request into an HTTP request against t.
func (t *target) buildRequest(r request) (*http.Request, error) {
	q := url.Values{"var": {r.crit.Var}, "line": {strconv.Itoa(r.crit.Line)}}
	if r.explain {
		q.Set("explain", "1")
	}
	if r.edit != nil {
		body, err := json.Marshal(map[string]any{"edit": map[string]any{
			"op": "replace", "line": r.edit.line, "text": r.edit.text,
		}})
		if err != nil {
			return nil, err
		}
		hr, err := http.NewRequest(http.MethodPatch, t.base+"/session/"+t.sessions[r.session]+"?"+q.Encode(), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		return hr, nil
	}
	hr, err := http.NewRequest(http.MethodPost, t.base+"/slice?"+q.Encode(), bytes.NewReader([]byte(r.src)))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "text/plain")
	return hr, nil
}

// do sends one request and reads the whole reply.
func do(c *http.Client, t *target, r request, buf *bytes.Buffer) (status int, err error) {
	hr, err := t.buildRequest(r)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// newHTTPClient returns a keep-alive client with one idle connection
// per closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
}

// sendAll answers reqs on `clients` parallel closed loops, untimed —
// the set-up path. Any failure is an error: set-up must succeed.
func sendAll(c *http.Client, t *target, reqs []request) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := w; i < len(reqs); i += clients {
				status, err := do(c, t, reqs[i], &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, buf.String())
				}
				if err != nil {
					errs[w] = fmt.Errorf("set-up request %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// window is the outcome of one timed closed-loop run.
type window struct {
	samples [][]sample // per client, in send order
	bodies  *bodies
	elapsed time.Duration
}

// runWindow drives one closed loop per stream from start until d has
// passed. Requests started before the deadline complete and count.
func runWindow(c *http.Client, t *target, streams []stream, start time.Time, d time.Duration) *window {
	w := &window{samples: make([][]sample, len(streams)), bodies: &bodies{m: map[reply]storedBody{}}}
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var last sync.Mutex
	end := start
	for ci, st := range streams {
		wg.Add(1)
		go func(ci int, st stream) {
			defer wg.Done()
			var buf bytes.Buffer
			out := make([]sample, 0, 4096)
			for time.Now().Before(deadline) {
				r := st.next()
				t0 := time.Now()
				status, err := do(c, t, r, &buf)
				now := time.Now()
				s := sample{req: r, status: status, lat: now.Sub(t0), at: now.Sub(start), durNS: -1}
				if err == nil {
					s.hash, s.durNS = contentHash(buf.Bytes())
					if status == http.StatusOK {
						w.bodies.add(reply{r.key, s.hash}, r, buf.Bytes())
					}
				}
				out = append(out, s)
			}
			last.Lock()
			if now := time.Now(); now.After(end) {
				end = now
			}
			last.Unlock()
			w.samples[ci] = out
		}(ci, st)
	}
	wg.Wait()
	w.elapsed = end.Sub(start)
	return w
}

// settler is a stream that must be driven to a resting state before
// it is abandoned (edit streams: every document back to its opened
// version).
type settler interface{ settled() bool }

// ramp drives untimed closed loops for d, then until every stream has
// settled, so the timed window starts from a steady daemon and from
// the state its streams expect. Replies are checked for status only.
func ramp(c *http.Client, t *target, streams []stream, d time.Duration) error {
	deadline := time.Now().Add(d)
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for ci, st := range streams {
		wg.Add(1)
		go func(ci int, st stream) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				s, ok := st.(settler)
				if !time.Now().Before(deadline) && (!ok || s.settled()) {
					return
				}
				status, err := do(c, t, st.next(), &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, buf.String())
				}
				if err != nil {
					errs[ci] = fmt.Errorf("ramp: %w", err)
					return
				}
			}
		}(ci, st)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// all flattens the per-client samples.
func (w *window) all() []sample {
	var out []sample
	for _, s := range w.samples {
		out = append(out, s...)
	}
	return out
}
