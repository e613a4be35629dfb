package pdg

import (
	"testing"

	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/dom"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// BenchmarkBuild merges prebuilt data and control dependence into the
// dependence rows of cold-miss-sized progen programs (size 272) of
// both styles. The data dependence rows are derived inside Build, so
// their cost is included; Reach is not.
func BenchmarkBuild(b *testing.B) {
	for _, st := range []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{{"structured", progen.Structured}, {"unstructured", progen.Unstructured}} {
		g := cfg.MustBuild(st.gen(progen.Config{Seed: 3, Stmts: 272}))
		cd := cdg.Build(g, dom.PostDominators(g, g.Exit.ID))
		rd := dataflow.Reach(g)
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(g, cd, rd, Invariants{})
			}
		})
	}
}
