package core

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// TestSliceInterprocInliningProperty is the soundness/completeness
// check of the two-pass SDG slicer: on MultiProc program sets — where
// value-result parameter passing is equivalent to textual inlining —
// the SDG slice must coincide line-for-line with the intraprocedural
// Agrawal slice of the inlined program, modulo the inlining line map.
// Structural lines (call statements and procedure declarations) are
// excluded from the comparison: they have no image under inlining.
//
// JUMPSLICE_PROGEN_CORPUS, when set, names a directory the generated
// corpus is persisted in and reloaded from (CI caches it between
// jobs, keyed on the generator source hash).
func TestSliceInterprocInliningProperty(t *testing.T) {
	const n = 120
	progs, err := progen.MultiProcCorpus(os.Getenv("JUMPSLICE_PROGEN_CORPUS"), n, progen.Config{Stmts: 15, Procs: 3})
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	for seed, p := range progs {
		seed, p := seed, p
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inl, lmap, err := progen.InlineMain(p)
			if err != nil {
				t.Fatalf("inline: %v", err)
			}
			inv := make(map[int]int, len(lmap))
			for il, ol := range lmap {
				inv[ol] = il
			}
			ps, err := AnalyzeProgramSet(context.Background(), p, nil, nil)
			if err != nil {
				t.Fatalf("analyze set: %v", err)
			}
			a, err := Analyze(inl)
			if err != nil {
				t.Fatalf("analyze inlined: %v", err)
			}
			structural := map[int]bool{}
			for _, s := range p.Body {
				if call, ok := s.(*lang.CallStmt); ok {
					structural[call.P.Line] = true
				}
			}
			for _, pd := range p.Procs {
				structural[pd.P.Line] = true
			}
			for _, wc := range progen.MainWriteCriteria(p) {
				c := Criterion{Var: wc.Var, Line: wc.Line}
				got, err := ps.SliceInterproc(c)
				if err != nil {
					t.Fatalf("%v: sdg slice: %v", c, err)
				}
				iline, ok := inv[wc.Line]
				if !ok {
					t.Fatalf("%v: criterion line has no inlined image", c)
				}
				want, err := a.Agrawal(Criterion{Var: wc.Var, Line: iline})
				if err != nil {
					t.Fatalf("%v: agrawal slice: %v", c, err)
				}
				var mapped []int
				for _, l := range want.Lines() {
					ol, ok := lmap[l]
					if !ok {
						t.Fatalf("%v: agrawal slice line %d (inlined) has no original image", c, l)
					}
					mapped = append(mapped, ol)
				}
				sort.Ints(mapped)
				var sdgLines []int
				for _, l := range got.Lines() {
					if !structural[l] {
						sdgLines = append(sdgLines, l)
					}
				}
				if !equalInts(mapped, sdgLines) {
					t.Errorf("criterion %v:\nsdg (non-structural)  = %v\nagrawal (mapped back) = %v\nprogram:\n%s\ninlined:\n%s",
						c, sdgLines, mapped, lang.Format(p, lang.PrintOptions{}), lang.Format(inl, lang.PrintOptions{}))
				}
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
