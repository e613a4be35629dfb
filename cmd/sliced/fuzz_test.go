package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzHandleSlice drives the /slice handler with arbitrary bodies and
// query parameters, deliberately bypassing the panic-recovery
// middleware: any panic crashes the fuzzer and is a finding. The
// other invariants: no request produces a 5xx (client input can never
// be a server fault on this path — the per-request timeout is
// disabled), and every non-2xx response carries the structured JSON
// error envelope. Every 200 is sent a second time to the same server:
// the repeat must be a 200 whose body matches the first apart from
// request and duration_ns, and both bodies must be exactly what
// writeJSON emits for them. A non-explain repeat is answered from the
// stored reply (X-Cache: result), for every algorithm; an explain
// repeat is recomputed on a reused analysis (X-Cache: hit), except
// for algo=sdg, which has no analysis cache.
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
			want := "result"
			if explain {
				// The query's algo overrides the JSON body's, as in
				// parseSliceRequest.
				eff := algo
				if eff == "" && asJSON {
					var jr sliceRequest
					_ = json.Unmarshal(body, &jr) // a 200 means it decoded
					eff = jr.Algo
				}
				want = "hit"
				if eff == "sdg" {
					want = ""
				}
			}
			again := send()
			if again.Code != 200 || again.Header().Get("X-Cache") != want {
				t.Fatalf("repeat of a 200: status %d X-Cache %q, want %q: %s", again.Code, again.Header().Get("X-Cache"), want, again.Body.String())
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

// FuzzRecordCheck drives checkRecord, the gate every stored reply from
// outside the process (a disk read, a peer fill) passes, with
// arbitrary bytes. It must never panic, and every record it accepts
// must splice into a reply that decodes and that writeJSON re-renders
// byte for byte, with the slice-line count the record reports.
func FuzzRecordCheck(f *testing.F) {
	s := newServer(testConfig(64), io.Discard)
	data, err := os.ReadFile("../../testdata/fig5-a.mc")
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest("POST", "/slice?var=positives&line=14", strings.NewReader(string(data))))
	var resp sliceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		f.Fatal(err)
	}
	stored := sliceBody(&resp)
	compact, err := json.Marshal(&resp) // the format of version 1 records
	if err != nil {
		f.Fatal(err)
	}
	if _, err := checkRecord(stored); err != nil {
		f.Fatalf("a record this daemon stored is refused: %v", err)
	}
	f.Add(stored)
	for _, bad := range [][]byte{
		stored[:len(stored)/2],
		compact,
		bytes.Replace(stored, []byte(`"var"`), []byte(`"extra": 1,
  "var"`), 1),
		[]byte(`,"algorithm":"agrawal","lines":[1],"duration_ns":`),
	} {
		if _, err := checkRecord(bad); err == nil {
			f.Fatalf("checkRecord accepted %q", bad)
		}
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := checkRecord(body)
		if err != nil {
			return
		}
		if !bytes.Equal(r.Body, body) {
			t.Fatalf("accepted record holds %q, not its input %q", r.Body, body)
		}
		w := httptest.NewRecorder()
		writeSliceBody(w, r.Body, 7, time.Now())
		var sr sliceResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
			t.Fatalf("accepted record splices into an undecodable reply: %v\n%s", err, w.Body.Bytes())
		}
		if sr.Request != 7 || sr.Algorithm == "" || len(sr.Lines) != r.SliceLines || r.SliceLines == 0 {
			t.Fatalf("accepted record decodes to %+v, reports %d slice lines", sr, r.SliceLines)
		}
		checkReencodes(t, w.Body.Bytes())
	})
}
