package cdg

import (
	"testing"

	"jumpslice/internal/cfg"
	"jumpslice/internal/dom"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// BenchmarkBuild builds the control dependence graph of cold-miss-sized
// progen programs (size 272) of both styles from a prebuilt
// postdominator tree.
func BenchmarkBuild(b *testing.B) {
	for _, st := range []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{{"structured", progen.Structured}, {"unstructured", progen.Unstructured}} {
		g := cfg.MustBuild(st.gen(progen.Config{Seed: 3, Stmts: 272}))
		pdt := dom.PostDominators(g, g.Exit.ID)
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(g, pdt)
			}
		})
	}
}
