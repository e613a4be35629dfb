package core

import (
	"reflect"
	"testing"

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
