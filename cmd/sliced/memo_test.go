package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
	"jumpslice/internal/slicecache"
)

// deliveryRE matches the two per-request values of a /slice reply,
// anchored to the reply's first and last lines: request is the first
// field and duration_ns the last.
var deliveryRE = regexp.MustCompile(`^\{\n  "request": \d+,|"duration_ns": \d+\n\}\n$`)

// sansDelivery returns a /slice reply with its request and
// duration_ns values blanked, failing if either is not where the
// framing puts it.
func sansDelivery(t *testing.T, body []byte) string {
	t.Helper()
	if n := len(deliveryRE.FindAllIndex(body, -1)); n != 2 {
		t.Fatalf("reply framing: %d of the request/duration_ns anchors found in %q", n, body)
	}
	return deliveryRE.ReplaceAllStringFunc(string(body), func(m string) string {
		if strings.HasPrefix(m, "{") {
			return `{"request": N,`
		}
		return `"duration_ns": N}`
	})
}

// checkReencodes asserts body is exactly what writeJSON emits for the
// response it decodes to: the reference for every reply format.
func checkReencodes(t *testing.T, body []byte) {
	t.Helper()
	var sr sliceResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &sr)
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("reply differs from writeJSON's encoding of itself:\n got %q\nwant %q", body, rec.Body.Bytes())
	}
}

// serveSlice sends one /slice request through s's full handler chain.
func serveSlice(s *server, src, query string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/slice?"+query, strings.NewReader(src))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// sliceCase is one /slice request of the byte-identity matrix, with
// the reply a default server gave it first.
type sliceCase struct {
	name, src, query string
	explain          bool
	first            *httptest.ResponseRecorder
}

// diskServer boots a server whose records are written through to a
// disk store in dir.
func diskServer(t *testing.T, dir string) *server {
	t.Helper()
	cfg := testConfig(1 << 10)
	cfg.DiskDir = dir
	s := newServer(cfg, io.Discard)
	if err := s.openCluster(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestResponseMemoMatchesCold asserts a stored reply is the reply
// computed from scratch, in every configuration. Over structured and
// unstructured programs, every write criterion, every algorithm and
// explain on and off, these bodies are byte-identical apart from
// request and duration_ns, and each is what writeJSON emits for it:
// the first and the repeated reply of a default server, a cache-off
// server's, the reply recomputed after eviction, a -disk-dir server's
// first and repeated reply, the same directory's after a restart
// (X-Cache: disk, then result), and a cluster node's that fills it
// from the peer that computed it. Repeats of non-explain replies are
// answered from stored bytes (X-Cache: result); explain replies are
// computed on demand, so their repeats are analysis hits (none for
// algo=sdg, which has no analysis cache).
func TestResponseMemoMatchesCold(t *testing.T) {
	s := newServer(testConfig(1<<10), io.Discard)
	offCfg := testConfig(1 << 10)
	offCfg.CacheOff = true
	off := newServer(offCfg, io.Discard)
	tinyCfg := testConfig(1 << 10)
	tinyCfg.CacheBytes = 1 // every analysis and record is evicted as it is inserted
	tiny := newServer(tinyCfg, io.Discard)
	dir := t.TempDir()
	disk1 := diskServer(t, dir)
	nodes := startCluster(t, 2, nil)

	// same asserts r answers c as c.first did.
	same := func(c *sliceCase, label string, r *httptest.ResponseRecorder) {
		t.Helper()
		if r.Code != c.first.Code {
			t.Fatalf("%s: %s status %d, first %d", c.name, label, r.Code, c.first.Code)
		}
		if r.Code != http.StatusOK {
			return
		}
		if got, want := sansDelivery(t, r.Body.Bytes()), sansDelivery(t, c.first.Body.Bytes()); got != want {
			t.Fatalf("%s: %s body differs:\n got %s\nwant %s", c.name, label, got, want)
		}
		checkReencodes(t, r.Body.Bytes())
	}
	// repeatTier is the X-Cache a repeat of c answers with.
	repeatTier := func(c *sliceCase) string {
		switch {
		case !c.explain:
			return "result"
		case strings.Contains(c.query, "algo=sdg"):
			return ""
		}
		return "hit"
	}
	tier := func(c *sliceCase, label string, r *httptest.ResponseRecorder, want string) {
		t.Helper()
		if c.first.Code == http.StatusOK && r.Header().Get("X-Cache") != want {
			t.Fatalf("%s: %s X-Cache = %q, want %q", c.name, label, r.Header().Get("X-Cache"), want)
		}
	}

	var cases []*sliceCase
	var stored int64
	for _, gen := range []func(progen.Config) *lang.Program{progen.Structured, progen.Unstructured} {
		for seed := int64(1); seed <= 2; seed++ {
			src := lang.Format(gen(progen.Config{Seed: seed, Stmts: 30}), lang.PrintOptions{})
			p, err := lang.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, wc := range progen.WriteCriteria(p) {
				for _, algo := range knownAlgos {
					for _, explain := range []bool{false, true} {
						q := url.Values{"var": {wc.Var}, "line": {fmt.Sprint(wc.Line)}, "algo": {algo}}
						if explain {
							q.Set("explain", "1")
						}
						c := &sliceCase{name: fmt.Sprintf("seed %d %s", seed, q.Encode()), src: src, query: q.Encode(), explain: explain}
						c.first = serveSlice(s, src, c.query)
						cases = append(cases, c)
						if c.first.Code == http.StatusOK {
							checkReencodes(t, c.first.Body.Bytes())
							if !explain {
								stored++
							}
						}
						repeat := serveSlice(s, src, c.query)
						same(c, "repeat", repeat)
						tier(c, "repeat", repeat, repeatTier(c))
						same(c, "cache-off", serveSlice(off, src, c.query))
						same(c, "evicted", serveSlice(tiny, src, c.query))
						same(c, "disk-dir", serveSlice(disk1, src, c.query))
						repeat = serveSlice(disk1, src, c.query)
						same(c, "disk-dir repeat", repeat)
						tier(c, "disk-dir repeat", repeat, repeatTier(c))
					}
				}
			}
		}
	}
	if stored == 0 {
		t.Fatal("no criterion produced a 200")
	}
	if got := s.cache.Stats().ResponseHits; got != stored {
		t.Errorf("ResponseHits = %d, want one per repeated non-explain request (%d)", got, stored)
	}
	if st := tiny.cache.Stats(); st.ResponseHits != 0 || st.Hits != 0 {
		t.Errorf("tiny cache served hits: %+v", st)
	}

	// A restart over the same directory reads every stored reply back.
	disk1.closeCluster()
	disk2 := diskServer(t, dir)
	t.Cleanup(disk2.closeCluster)
	for _, c := range cases {
		first, repeat := serveSlice(disk2, c.src, c.query), serveSlice(disk2, c.src, c.query)
		same(c, "restarted", first)
		same(c, "restarted repeat", repeat)
		if !c.explain {
			tier(c, "restarted", first, "disk")
			tier(c, "restarted repeat", repeat, "result")
		}
	}

	// A cluster node fills each stored reply from the peer that
	// computed it: the request that seeds the peer carries the hop
	// marker, so the peer serves it itself.
	for _, c := range cases {
		k := slicecache.KeyOf(c.src)
		owner := nodeByAddr(nodes, nodes[0].s.cluster.ring.Owner(k[:]))
		peer := nodes[0]
		if peer == owner {
			peer = nodes[1]
		}
		if !c.explain {
			postNode(t, peer.addr, c.query, c.src, map[string]string{routedFromHeader: "test"})
		}
		resp, body := postNode(t, owner.addr, c.query, c.src, nil)
		r := httptest.NewRecorder()
		r.Code = resp.StatusCode
		r.Body.Write(body)
		same(c, "cluster", r)
		if !c.explain && resp.StatusCode == http.StatusOK && resp.Header.Get("X-Cache") != "peer-fill" {
			t.Fatalf("%s: cluster X-Cache = %q, want peer-fill", c.name, resp.Header.Get("X-Cache"))
		}
	}
}

// TestResponseMemoKeyOwnsItsStrings asserts a stored reply does not
// keep its request alive. Query values are views of the request line,
// which a client can pad to about a megabyte with unknown parameters,
// and a record is charged only for its body: were it to hold those
// views, -cache-bytes would no longer bound what stays in memory. The
// requests bypass the telemetry middleware, whose request ring keeps
// a bounded number of recent events.
func TestResponseMemoKeyOwnsItsStrings(t *testing.T) {
	s := newServer(testConfig(1<<10), io.Discard)
	src := lang.Format(progen.Structured(progen.Config{Seed: 1, Stmts: 30}), lang.PrintOptions{})
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 256<<10)
	send := func(q string) int {
		req := httptest.NewRequest("POST", "/slice?"+q, strings.NewReader(src))
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req)
		return rec.Code
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	wcs := progen.WriteCriteria(p)
	if code := send(fmt.Sprintf("var=%s&line=%d&explain=1", wcs[0].Var, wcs[0].Line)); code != http.StatusOK {
		t.Fatalf("warm-up status %d", code)
	}
	before := heap()
	stored := 0
	for _, wc := range wcs {
		for _, algo := range knownAlgos {
			if algo == "sdg" || stored == 32 {
				continue
			}
			if send(fmt.Sprintf("var=%s&line=%d&algo=%s&pad=%s", wc.Var, wc.Line, algo, pad)) == http.StatusOK {
				stored++
			}
		}
	}
	if stored < 16 {
		t.Fatalf("only %d criteria answered 200", stored)
	}
	grown := heap() - before
	runtime.KeepAlive(s) // the cache must survive the measurement
	if limit := int64(stored * len(pad) / 4); grown > limit {
		t.Errorf("heap grew %d bytes over %d stored replies (limit %d): records pin their %d-byte request lines",
			grown, stored, limit, len(pad))
	}
}
