package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// BenchmarkSliceHTTP measures POST /slice through the daemon's full
// handler chain, over loopback HTTP, on one ~200-statement generated
// program in the default configuration:
//
//	miss          every request a program the cache has not seen
//	hit           a repeated request, answered from its stored reply
//	explain-hit   a repeated explain=1 request: an analysis hit, the
//	              reply computed on demand
//	not-modified  a revalidation answered 304 from the ETag
func BenchmarkSliceHTTP(b *testing.B) {
	src := lang.Format(progen.Structured(progen.Config{Seed: 1, Stmts: 136}), lang.PrintOptions{})
	p, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	wcs := progen.WriteCriteria(p)
	wc := wcs[len(wcs)-1]
	query := fmt.Sprintf("var=%s&line=%d", wc.Var, wc.Line)
	same := func(int) string { return src }

	for _, bc := range []struct {
		name  string
		query string
		body  func(i int) string
		reval bool // send the warm-up reply's ETag in If-None-Match
		want  int
	}{
		// An assignment appended after the criterion makes each source
		// new without changing its slice.
		{"miss", query, func(i int) string { return fmt.Sprintf("%szzmiss = %d;\n", src, i) }, false, http.StatusOK},
		{"hit", query, same, false, http.StatusOK},
		{"explain-hit", query + "&explain=1", same, false, http.StatusOK},
		{"not-modified", query, same, true, http.StatusNotModified},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := newServer(defaultConfig(), io.Discard)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			client := ts.Client()
			post := func(body, etag string, want int) string {
				req, err := http.NewRequest("POST", ts.URL+"/slice?"+bc.query, strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if etag != "" {
					req.Header.Set("If-None-Match", etag)
				}
				resp, err := client.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != want {
					b.Fatalf("status %d, want %d", resp.StatusCode, want)
				}
				return resp.Header.Get("ETag")
			}
			etag := post(bc.body(-1), "", http.StatusOK) // warm the cache
			if !bc.reval {
				etag = ""
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(bc.body(i), etag, bc.want)
			}
		})
	}
}
