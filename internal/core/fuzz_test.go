package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// FuzzSliceEngines differentially checks every way this package
// computes a Figure 7 slice on generated programs. For each write
// criterion, the per-criterion BFS engine (Agrawal), the condensation
// engine, SliceAll and the seed formulation (seedConventional and
// seedRepairJumps, which walk the plain PDG.Deps rows and restore the
// invariants by rescanning) must agree on the node set, the traversal
// count and the jump-addition order.
func FuzzSliceEngines(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(30), false)
		f.Add(seed, uint8(30), true)
	}
	f.Add(int64(7), uint8(200), true)
	f.Add(int64(11), uint8(120), false)

	f.Fuzz(func(t *testing.T, seed int64, size uint8, unstructured bool) {
		gen := progen.Structured
		if unstructured {
			gen = progen.Unstructured
		}
		a, err := Analyze(gen(progen.Config{Seed: seed, Stmts: 1 + int(size)}))
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		var crits []Criterion
		for _, wc := range progen.WriteCriteria(a.Prog) {
			crits = append(crits, Criterion{Var: wc.Var, Line: wc.Line})
		}
		if len(crits) == 0 {
			return
		}
		batch, err := a.SliceAll(crits)
		if err != nil {
			t.Fatalf("SliceAll: %v", err)
		}
		for i, c := range crits {
			bfs, err := a.Agrawal(c)
			if err != nil {
				t.Fatalf("%s: Agrawal: %v", c, err)
			}
			cond, err := a.agrawalWith(c, a.batchEngine())
			if err != nil {
				t.Fatalf("%s: condensation engine: %v", c, err)
			}
			ref := seedConventional(a, c)
			refJumps, refTraversals := seedRepairJumps(a, ref)
			for _, got := range []struct {
				name string
				s    *Slice
			}{{"bfs", bfs}, {"condensation", cond}, {"SliceAll", batch[i]}} {
				if !got.s.Nodes.Equal(ref) {
					t.Errorf("%s [%s]: nodes %v, seed impl %v", c, got.name, got.s.Nodes, ref)
				}
				if got.s.Traversals != refTraversals {
					t.Errorf("%s [%s]: traversals %d, seed impl %d", c, got.name, got.s.Traversals, refTraversals)
				}
				if !reflect.DeepEqual(got.s.JumpsAdded, refJumps) {
					t.Errorf("%s [%s]: jumps %v, seed impl %v", c, got.name, got.s.JumpsAdded, refJumps)
				}
			}
		}
	})
}

// FuzzReanalyzeMatchesCold differentially checks the incremental
// engine against a cold analysis. Given a base program and an edited
// one, ReanalyzeProgram(Analyze(base), edited) must fail exactly when
// Analyze(edited) fails, and on success the two analyses must have
// equal PDG rows, postdominator trees and lexical successor trees, and
// give the same Figure 7 lines and jump additions for every write
// criterion.
func FuzzReanalyzeMatchesCold(f *testing.F) {
	const body = "read(x);\ny = x + 1;\nwrite(y);\n"
	f.Add(body, "proc f(a) {\n  a = a + 1;\n}\n"+body)
	// Generated one-statement edits, until every reuse tier is seeded
	// twice.
	tiers := map[string]int{}
	for seed := int64(0); tiers["patched"] < 2 || tiers["partial"] < 2 || tiers["full"] < 2; seed++ {
		if seed == 200 {
			f.Fatalf("generated edits reached too few tiers: %v", tiers)
		}
		gen := progen.Structured
		if seed%2 == 1 {
			gen = progen.Unstructured
		}
		base := lang.Format(gen(progen.Config{Seed: seed, Stmts: 30}), lang.PrintOptions{})
		edited, tier := mutate(rand.New(rand.NewSource(seed)), base)
		if tier == "" || tiers[tier] >= 2 {
			continue
		}
		tiers[tier]++
		f.Add(base, edited)
	}

	f.Fuzz(func(t *testing.T, base, edited string) {
		if len(base) > 4096 || len(edited) > 4096 {
			return
		}
		baseProg, err := lang.Parse(base)
		if err != nil {
			return
		}
		prev, err := Analyze(baseProg)
		if err != nil {
			return
		}
		incProg, err := lang.Parse(edited)
		if err != nil {
			return
		}
		inc, stats, incErr := ReanalyzeProgram(context.Background(), prev, incProg, nil, nil)
		cold, coldErr := Analyze(lang.MustParse(edited))
		if (incErr == nil) != (coldErr == nil) {
			t.Fatalf("ReanalyzeProgram err = %v, cold Analyze err = %v", incErr, coldErr)
		}
		if incErr != nil {
			return
		}
		rowsI, rowsC := inc.PDG.Rows(), cold.PDG.Rows()
		if len(rowsI) != len(rowsC) {
			t.Fatalf("%s: %d PDG rows, cold %d", stats.Outcome, len(rowsI), len(rowsC))
		}
		for n := range rowsI {
			if !slices.Equal(rowsI[n], rowsC[n]) {
				t.Fatalf("%s: PDG row %d = %v, cold %v", stats.Outcome, n, rowsI[n], rowsC[n])
			}
		}
		if !slices.Equal(inc.PDT.Idom, cold.PDT.Idom) {
			t.Fatalf("%s: PDT idom %v, cold %v", stats.Outcome, inc.PDT.Idom, cold.PDT.Idom)
		}
		if !slices.Equal(inc.LST.Parent, cold.LST.Parent) {
			t.Fatalf("%s: LST parent %v, cold %v", stats.Outcome, inc.LST.Parent, cold.LST.Parent)
		}
		for _, wc := range progen.WriteCriteria(cold.Prog) {
			c := Criterion{Var: wc.Var, Line: wc.Line}
			si, errI := inc.Agrawal(c)
			sc, errC := cold.Agrawal(c)
			if (errI == nil) != (errC == nil) {
				t.Fatalf("%s: %s: Agrawal err = %v, cold err = %v", stats.Outcome, c, errI, errC)
			}
			if errI != nil {
				continue
			}
			if !slices.Equal(si.Lines(), sc.Lines()) {
				t.Errorf("%s: %s: lines %v, cold %v", stats.Outcome, c, si.Lines(), sc.Lines())
			}
			if !slices.Equal(si.JumpsAdded, sc.JumpsAdded) {
				t.Errorf("%s: %s: jumps added %v, cold %v", stats.Outcome, c, si.JumpsAdded, sc.JumpsAdded)
			}
		}
	})
}
