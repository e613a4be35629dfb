package lang_test

import (
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// coldMissStyles generates one program per progen style at size 272,
// the size of a cold-miss program in the sliced benchmark (~400
// statements on average over the two styles).
var coldMissStyles = []struct {
	name string
	gen  func(progen.Config) *lang.Program
}{
	{"structured", progen.Structured},
	{"unstructured", progen.Unstructured},
}

func BenchmarkParse(b *testing.B) {
	for _, st := range coldMissStyles {
		src := lang.Format(st.gen(progen.Config{Seed: 3, Stmts: 272}), lang.PrintOptions{})
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := lang.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFormat(b *testing.B) {
	for _, st := range coldMissStyles {
		p := st.gen(progen.Config{Seed: 3, Stmts: 272})
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lang.Format(p, lang.PrintOptions{LineNumbers: true})
			}
		})
	}
}
