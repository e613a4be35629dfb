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

// TestResponseMemoMatchesCold asserts a memoized reply is the reply
// computed from scratch. Over structured and unstructured programs,
// every write criterion, every single-procedure algorithm and explain
// on and off, the first and the repeated body on one server, a
// cache-off server's body and the body recomputed after eviction are
// byte-identical apart from request and duration_ns, and each is what
// writeJSON emits for it. Repeats are X-Cache hits; exactly the
// non-explain ones are answered from memoized bytes.
func TestResponseMemoMatchesCold(t *testing.T) {
	s := newServer(testConfig(1<<10), io.Discard)
	offCfg := testConfig(1 << 10)
	offCfg.CacheOff = true
	off := newServer(offCfg, io.Discard)
	tinyCfg := testConfig(1 << 10)
	tinyCfg.CacheBytes = 1 // every analysis is evicted as it is inserted
	tiny := newServer(tinyCfg, io.Discard)

	var memoHits int64
	for _, gen := range []func(progen.Config) *lang.Program{progen.Structured, progen.Unstructured} {
		for seed := int64(1); seed <= 2; seed++ {
			src := lang.Format(gen(progen.Config{Seed: seed, Stmts: 30}), lang.PrintOptions{})
			p, err := lang.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, wc := range progen.WriteCriteria(p) {
				for _, algo := range knownAlgos {
					if algo == "sdg" {
						continue
					}
					for _, explain := range []bool{false, true} {
						q := url.Values{"var": {wc.Var}, "line": {fmt.Sprint(wc.Line)}, "algo": {algo}}
						if explain {
							q.Set("explain", "1")
						}
						name := fmt.Sprintf("seed %d %s", seed, q.Encode())
						first := serveSlice(s, src, q.Encode())
						repeat := serveSlice(s, src, q.Encode())
						cold := serveSlice(off, src, q.Encode())
						evicted := serveSlice(tiny, src, q.Encode())
						if first.Code != http.StatusOK {
							// The same refusal everywhere, never memoized.
							for _, r := range []*httptest.ResponseRecorder{repeat, cold, evicted} {
								if r.Code != first.Code {
									t.Fatalf("%s: status %d, then %d", name, first.Code, r.Code)
								}
							}
							continue
						}
						if got := repeat.Header().Get("X-Cache"); got != "hit" {
							t.Fatalf("%s: repeat X-Cache = %q, want hit", name, got)
						}
						if !explain {
							memoHits++
						}
						want := sansDelivery(t, first.Body.Bytes())
						for label, r := range map[string]*httptest.ResponseRecorder{"repeat": repeat, "cache-off": cold, "evicted": evicted} {
							if r.Code != http.StatusOK {
								t.Fatalf("%s: %s status %d", name, label, r.Code)
							}
							if got := sansDelivery(t, r.Body.Bytes()); got != want {
								t.Fatalf("%s: %s body differs:\n got %s\nwant %s", name, label, got, want)
							}
							checkReencodes(t, r.Body.Bytes())
						}
						checkReencodes(t, first.Body.Bytes())
					}
				}
			}
		}
	}
	if memoHits == 0 {
		t.Fatal("no criterion produced a 200")
	}
	if got := s.cache.Stats().ResponseHits; got != memoHits {
		t.Errorf("ResponseHits = %d, want one per repeated non-explain request (%d)", got, memoHits)
	}
	if st := tiny.cache.Stats(); st.ResponseHits != 0 || st.Hits != 0 {
		t.Errorf("tiny cache served hits: %+v", st)
	}
}

// TestResponseMemoKeyOwnsItsStrings asserts a memoized reply does not
// keep its request alive. Query values are views of the request line,
// which a client can pad to about a megabyte with unknown parameters,
// and a memo key is charged only for its own lengths: were it to hold
// those views, -cache-bytes would no longer bound what stays in
// memory. The requests bypass the telemetry middleware, whose request
// ring keeps a bounded number of recent events.
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
		t.Errorf("heap grew %d bytes over %d memoized replies (limit %d): stored keys pin their %d-byte request lines",
			grown, stored, limit, len(pad))
	}
}

// TestResponseMemoOffWithResultTier asserts a node with a result tier
// (-peers, -disk-dir) memoizes no reply on its analyses: the tier
// already stores every reply, so the analysis cache holds only the
// analysis, exactly as after an explain request.
func TestResponseMemoOffWithResultTier(t *testing.T) {
	src := fig5(t)
	plain := newServer(testConfig(1<<10), io.Discard)
	if rec := serveSlice(plain, src, "var=positives&line=14&explain=1"); rec.Code != http.StatusOK {
		t.Fatalf("explain status %d", rec.Code)
	}
	cfg := testConfig(1 << 10)
	cfg.DiskDir = t.TempDir()
	s := newServer(cfg, io.Discard)
	if err := s.openCluster(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.closeCluster)
	for i, want := range []string{"miss", "result"} {
		rec := serveSlice(s, src, "var=positives&line=14")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
			t.Fatalf("request %d: status %d X-Cache %q, want %s", i, rec.Code, rec.Header().Get("X-Cache"), want)
		}
	}
	if got, want := s.cache.Stats().Bytes, plain.cache.Stats().Bytes; got != want {
		t.Errorf("analysis cache holds %d bytes, want the analysis alone (%d)", got, want)
	}
}
