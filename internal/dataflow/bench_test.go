package dataflow

import (
	"testing"

	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// BenchmarkReach runs reaching definitions, and the data dependence
// rows derived from them, on cold-miss-sized progen programs (size
// 272) of both styles.
func BenchmarkReach(b *testing.B) {
	for _, st := range []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{{"structured", progen.Structured}, {"unstructured", progen.Unstructured}} {
		g := cfg.MustBuild(st.gen(progen.Config{Seed: 3, Stmts: 272}))
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Reach(g).DataDeps()
			}
		})
	}
}
