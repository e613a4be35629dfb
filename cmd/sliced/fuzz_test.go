package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzHandleSlice drives the /slice handler with arbitrary bodies and
// query parameters, deliberately bypassing the panic-recovery
// middleware: any panic crashes the fuzzer and is a finding. The
// other invariants: no request produces a 5xx (client input can never
// be a server fault on this path — the per-request timeout is
// disabled), and every non-2xx response carries the structured JSON
// error envelope. Every 200 is sent a second time to the same server:
// the repeat, answered from the memoized response unless explain is
// set, must be a 200 cache hit (algo=sdg, which bypasses the cache,
// aside) whose body matches the first apart from request and
// duration_ns, and both bodies must be exactly what
// writeJSON emits for them.
func FuzzHandleSlice(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/*.mc")
	for _, fn := range files {
		if data, err := os.ReadFile(fn); err == nil {
			f.Add(data, "positives", "14", "agrawal", false, true)
		}
	}
	f.Add([]byte(`{"source":"x = 1; write(x);","var":"x","line":2}`), "", "", "", true, false)
	f.Add([]byte("x = 1;"), "x", "1", "conventional", false, false)
	f.Add([]byte("x = 1;"), "x", "one", "magic", false, true)
	f.Add([]byte("while ("), "x", "1", "", false, false)
	f.Add([]byte{}, "", "-1", "structured", true, true)
	f.Add([]byte("duration_ns = 1;\nrequest = duration_ns;\nwrite(request);"), "request", "3", "", false, false)
	f.Add([]byte(`{"source":"x = 1;\n\tif (x < 2) x = x + 1;\nwrite(x);","var":"x","line":3}`), "", "", "", true, false)
	f.Add([]byte("x = 1;\nwrite(x);"), "x", "2", "sdg", false, false)
	f.Add([]byte(`{"source":"x = 1;\nwrite(x);","var":"x","line":2,"algo":"sdg"}`), "", "", "", true, true)

	f.Fuzz(func(t *testing.T, body []byte, varName, lineStr, algo string, asJSON, explain bool) {
		if len(body) > 1<<16 {
			return // bound per-exec analysis cost
		}
		cfg := defaultConfig()
		cfg.Flight = 64
		cfg.Timeout = 0 // a fuzz exec must never 503 on time
		cfg.MaxBody = 1 << 17
		cfg.MaxStmts = 2000
		s := newServer(cfg, io.Discard)

		q := url.Values{}
		if varName != "" {
			q.Set("var", varName)
		}
		if lineStr != "" {
			q.Set("line", lineStr)
		}
		if algo != "" {
			q.Set("algo", algo)
		}
		if explain {
			q.Set("explain", "1")
		}
		send := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest("POST", "/slice?"+q.Encode(), strings.NewReader(string(body)))
			if asJSON {
				req.Header.Set("Content-Type", "application/json")
			}
			rec := httptest.NewRecorder()
			s.mux.ServeHTTP(rec, req) // no recovery middleware: panics surface
			return rec
		}
		rec := send()

		switch rec.Code {
		case 200, 400, 404, 405, 413, 422:
		default:
			t.Fatalf("status %d for client input (body %q, query %q): %s",
				rec.Code, body, q.Encode(), rec.Body.String())
		}
		if rec.Code == 200 {
			// algo=sdg is served without the analysis cache, so its
			// repeat carries no X-Cache. The query's algo overrides
			// the JSON body's, as in parseSliceRequest.
			eff := algo
			if eff == "" && asJSON {
				var jr sliceRequest
				_ = json.Unmarshal(body, &jr) // a 200 means it decoded
				eff = jr.Algo
			}
			again := send()
			if again.Code != 200 || (eff != "sdg" && again.Header().Get("X-Cache") != "hit") {
				t.Fatalf("repeat of a 200: status %d X-Cache %q: %s", again.Code, again.Header().Get("X-Cache"), again.Body.String())
			}
			if a, b := sansDelivery(t, rec.Body.Bytes()), sansDelivery(t, again.Body.Bytes()); a != b {
				t.Fatalf("repeat body differs:\n got %s\nwant %s", b, a)
			}
			checkReencodes(t, rec.Body.Bytes())
			checkReencodes(t, again.Body.Bytes())
		}
		if rec.Code != 200 {
			var ae apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
				t.Fatalf("status %d without the JSON error envelope: %v: %s", rec.Code, err, rec.Body.String())
			}
			if ae.Error.Code == "" || ae.Error.Status != rec.Code {
				t.Fatalf("malformed envelope for status %d: %+v", rec.Code, ae.Error)
			}
		}
	})
}
