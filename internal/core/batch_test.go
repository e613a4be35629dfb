package core

import (
	"math/rand"
	"reflect"
	"testing"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// The seed formulation of the paper's algorithms, kept verbatim as a
// test-only reference. It walks the plain PDG.Deps rows and restores
// the two slice invariants by a grow-then-rescan fixpoint, re-deriving
// the invariant pairs from the program's syntax, so it shares nothing
// with the invariant edges pdg.Build appends to the rows the
// production engines walk.

// seedGrow adds seed and its backward closure over the plain
// dependence rows to set, stopping at nodes already in set.
func seedGrow(a *Analysis, set *bits.Set, seed int) {
	if set.Has(seed) {
		return
	}
	set.Add(seed)
	stack := []int{seed}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range a.PDG.Deps(n) {
			if !set.Has(d) {
				set.Add(d)
				stack = append(stack, d)
			}
		}
	}
}

// seedNormalize closes set under the conditional-jump adaptation and
// switch enclosure, iterating both passes to a joint fixpoint.
func seedNormalize(a *Analysis, set *bits.Set) {
	for changed := true; changed; {
		changed = false
		for _, n := range a.CFG.Nodes {
			if n.Kind != cfg.KindPredicate || !set.Has(n.ID) {
				continue
			}
			if j := a.conditionalJumpOf(n); j != nil && !set.Has(j.ID) {
				seedGrow(a, set, j.ID)
				changed = true
			}
		}
		for id, sw := range a.enclosingSwitch {
			if sw >= 0 && set.Has(id) && !set.Has(sw) {
				seedGrow(a, set, sw)
				changed = true
			}
		}
	}
}

// seedConventional is the reference conventional slice set.
func seedConventional(a *Analysis, c Criterion) *bits.Set {
	seeds, err := a.resolveCriterion(c)
	if err != nil {
		panic(err)
	}
	set := bits.New(a.CFG.NumNodes())
	for _, v := range seeds {
		seedGrow(a, set, v)
	}
	set.Add(a.CFG.Entry.ID)
	seedNormalize(a, set)
	return set
}

// seedRepairJumps is the reference Figure 7 loop: a full
// postdominator-tree preorder scan per traversal, filtering non-jumps
// and dead nodes on the fly, growing and re-normalizing after each
// admitted jump. The production repairJumps runs over the precomputed
// live-jump worklist with pluggable closure engines; the tests below
// pin it to this reference — same final set, same traversal count,
// same jump-addition order.
func seedRepairJumps(a *Analysis, set *bits.Set) (jumpsAdded []int, traversals int) {
	order := a.PDT.Preorder()
	for {
		traversals++
		changed := false
		for _, v := range order {
			n := a.CFG.Nodes[v]
			if !n.Kind.IsJump() || set.Has(v) || !a.live[v] {
				continue
			}
			if a.nearestPostdomInSlice(v, set) == a.nearestLexInSlice(v, set) {
				continue
			}
			seedGrow(a, set, v)
			seedNormalize(a, set)
			jumpsAdded = append(jumpsAdded, v)
			changed = true
		}
		if !changed {
			return jumpsAdded, traversals
		}
	}
}

// batchCases runs fn over both progen corpora with the given seed
// count, handing it each analysis with its write criteria.
func batchCases(t *testing.T, seeds int, fn func(t *testing.T, corpus string, seed int64, a *Analysis, crits []Criterion)) {
	t.Helper()
	corpora := []struct {
		name string
		gen  func(progen.Config) *lang.Program
	}{
		{"structured", progen.Structured},
		{"unstructured", progen.Unstructured},
	}
	for _, corpus := range corpora {
		for seed := int64(0); seed < int64(seeds); seed++ {
			p := corpus.gen(progen.Config{Seed: seed, Stmts: 30})
			a, err := Analyze(p)
			if err != nil {
				t.Fatalf("%s seed %d: analyze: %v", corpus.name, seed, err)
			}
			var crits []Criterion
			for _, wc := range progen.WriteCriteria(p) {
				crits = append(crits, Criterion{Var: wc.Var, Line: wc.Line})
			}
			if len(crits) == 0 {
				continue
			}
			fn(t, corpus.name, seed, a, crits)
		}
	}
}

// TestPropertySliceAllEqualsAgrawal asserts the batch API returns,
// for every criterion, exactly the per-criterion Agrawal result:
// identical node sets, traversal counts, jump-addition order and
// label retargeting — the acceptance property of the condensation
// engine.
func TestPropertySliceAllEqualsAgrawal(t *testing.T) {
	const seeds = 120
	cases := 0
	batchCases(t, seeds, func(t *testing.T, corpus string, seed int64, a *Analysis, crits []Criterion) {
		batch, err := a.SliceAll(crits)
		if err != nil {
			t.Fatalf("%s seed %d: SliceAll: %v", corpus, seed, err)
		}
		for i, c := range crits {
			want, err := a.Agrawal(c)
			if err != nil {
				t.Fatalf("%s seed %d %s: Agrawal: %v", corpus, seed, c, err)
			}
			got := batch[i]
			cases++
			if !got.Nodes.Equal(want.Nodes) {
				t.Errorf("%s seed %d %s: SliceAll nodes %v, Agrawal %v", corpus, seed, c, got.Nodes, want.Nodes)
			}
			if got.Traversals != want.Traversals {
				t.Errorf("%s seed %d %s: SliceAll traversals %d, Agrawal %d", corpus, seed, c, got.Traversals, want.Traversals)
			}
			if !reflect.DeepEqual(got.JumpsAdded, want.JumpsAdded) {
				t.Errorf("%s seed %d %s: SliceAll jumps %v, Agrawal %v", corpus, seed, c, got.JumpsAdded, want.JumpsAdded)
			}
			if !reflect.DeepEqual(got.Relabeled, want.Relabeled) {
				t.Errorf("%s seed %d %s: SliceAll relabeled %v, Agrawal %v", corpus, seed, c, got.Relabeled, want.Relabeled)
			}
		}
	})
	if cases < 2*seeds {
		t.Fatalf("only %d cases exercised; generator drift?", cases)
	}
}

// TestPropertyWorklistMatchesSeedRepair asserts production slicing
// reproduces the seed formulation exactly: the conventional set, then
// the Figure 7 repair's final set, Traversals and JumpsAdded order —
// on both corpora, under both closure engines. It also pins the
// one-pass NormalizeSlice to the seed fixpoint on random node subsets,
// the sets the baselines hand it.
func TestPropertyWorklistMatchesSeedRepair(t *testing.T) {
	const seeds = 120
	batchCases(t, seeds, func(t *testing.T, corpus string, seed int64, a *Analysis, crits []Criterion) {
		for _, c := range crits {
			conv, err := a.Conventional(c)
			if err != nil {
				t.Fatalf("%s seed %d %s: conventional: %v", corpus, seed, c, err)
			}
			refSet := seedConventional(a, c)
			if !conv.Nodes.Equal(refSet) {
				t.Errorf("%s seed %d %s: conventional %v, seed impl %v", corpus, seed, c, conv.Nodes, refSet)
			}
			refJumps, refTraversals := seedRepairJumps(a, refSet)
			for _, eng := range []struct {
				name string
				e    depEngine
			}{{"bfs", a.PDG}, {"condensation", a.batchEngine()}} {
				set := conv.Nodes.Clone()
				jumps, _, traversals, err := a.repairJumps(set, a.jumpsPDT, eng.e)
				if err != nil {
					t.Fatalf("%s seed %d %s [%s]: repairJumps: %v", corpus, seed, c, eng.name, err)
				}
				if !set.Equal(refSet) {
					t.Errorf("%s seed %d %s [%s]: worklist set %v, seed impl %v", corpus, seed, c, eng.name, set, refSet)
				}
				if traversals != refTraversals {
					t.Errorf("%s seed %d %s [%s]: worklist traversals %d, seed impl %d", corpus, seed, c, eng.name, traversals, refTraversals)
				}
				if !reflect.DeepEqual(jumps, refJumps) {
					t.Errorf("%s seed %d %s [%s]: worklist jumps %v, seed impl %v", corpus, seed, c, eng.name, jumps, refJumps)
				}
			}
		}

		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4; trial++ {
			got := bits.New(a.CFG.NumNodes())
			for v := 0; v < a.CFG.NumNodes(); v++ {
				if rng.Intn(4) == 0 {
					got.Add(v)
				}
			}
			want := got.Clone()
			if err := a.NormalizeSlice(got); err != nil {
				t.Fatalf("%s seed %d: NormalizeSlice: %v", corpus, seed, err)
			}
			seedNormalize(a, want)
			if !got.Equal(want) {
				t.Errorf("%s seed %d trial %d: NormalizeSlice %v, seed impl %v", corpus, seed, trial, got, want)
			}
		}
	})
}
