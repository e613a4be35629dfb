// Package baselines implements the related-work slicing algorithms
// the paper compares against in Section 5:
//
//   - BallHorwitz — the augmented-flowgraph algorithm of Ball &
//     Horwitz [5], equivalently Choi & Ferrante's first algorithm [8].
//     The paper proves its own Figure 7 algorithm computes exactly the
//     same slices; the property tests in this repository verify that
//     claim empirically.
//   - Lyle — Lyle's extremely conservative rule [22]: include every
//     jump lying between a slice statement and the criterion location
//     in the flowgraph.
//   - Gallagher — Gallagher's refinement [11]: include a jump only if
//     its target block contributes to the slice and its controlling
//     predicates are in the slice. Correct on the paper's Figure 5 but
//     provably wrong on Figure 16.
//   - JiangZhouRobson — a reconstruction of the Jiang–Zhou–Robson
//     rules [18]: include a jump when its controlling predicate and
//     its target are both in the slice. Fails on Figure 8 exactly as
//     the paper reports (jumps 11 and 13 are missed).
package baselines

import (
	"fmt"

	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/core"
	"jumpslice/internal/dom"
	"jumpslice/internal/lst"
	"jumpslice/internal/pdg"
)

// BallHorwitz computes the slice with the augmented-PDG algorithm of
// Ball & Horwitz / Choi & Ferrante: the control dependence graph is
// built from an augmented flowgraph that adds, for every jump
// statement, an edge to the jump's immediate lexical successor
// (Ball–Horwitz call it the continuation, Choi–Ferrante the
// fall-through statement). Jumps thereby act as pseudo-predicates, so
// the plain backward dependence closure includes exactly the needed
// jumps. Data dependence still comes from the unaugmented flowgraph.
//
// The returned slice's node IDs refer to the plain analysis's
// flowgraph; the two graphs are built from the same program by the
// same deterministic builder, so their node IDs coincide.
func BallHorwitz(a *core.Analysis, c core.Criterion) (*core.Slice, error) {
	aug, err := cfg.Build(a.Prog)
	if err != nil {
		return nil, err
	}
	if aug.NumNodes() != a.CFG.NumNodes() {
		return nil, fmt.Errorf("baselines: augmented graph has %d nodes, plain graph %d",
			aug.NumNodes(), a.CFG.NumNodes())
	}

	// Augment: jump → immediate lexical successor. The lexical
	// successor tree of the augmented graph equals the plain one
	// (same syntax), so we build it over aug directly.
	tree := lst.Build(aug)
	for _, j := range aug.Jumps() {
		fall := aug.Nodes[tree.Parent[j.ID]]
		aug.AddEdge(j, fall, "F")
	}

	pdt := dom.PostDominators(aug, aug.Exit.ID)
	acdg := cdg.Build(aug, pdt)
	// Data dependence from the *unaugmented* graph (a.RD), control
	// dependence from the augmented one — the defining trait of the
	// algorithm. The augmented PDG carries no invariant edges: the
	// invariants are applied below over the plain PDG.
	apdg := pdg.Build(aug, acdg, a.RD, pdg.Invariants{})

	seeds, err := a.CriterionNodes(c)
	if err != nil {
		return nil, err
	}
	// Plain backward closure over the augmented PDG. Dead code makes
	// the two algorithms differ cosmetically: the augmentation gives
	// statements lexically after a jump a fall-through edge, so this
	// closure can route through (and retain) jumps in unreachable
	// code, while the Figure 7 loop skips them. The live fragments of
	// the two slices coincide — see Slice.LiveStatementNodes and the
	// equivalence property tests.
	set, _ := apdg.BackwardClosure(seeds, nil) // cannot fail without a cancel callback
	set.Add(a.CFG.Entry.ID)
	// The shared slice invariants (conditional-jump adaptation,
	// switch enclosure) apply to every algorithm; see
	// core.NormalizeSlice. Note the normalization closes over the
	// *plain* PDG, matching the Figure 7 side of the equivalence.
	if err := a.NormalizeSlice(set); err != nil {
		return nil, err
	}
	return &core.Slice{
		Analysis:  a,
		Criterion: c,
		Algorithm: "ball-horwitz",
		Nodes:     set,
		Relabeled: a.RetargetLabels(set),
	}, nil
}
