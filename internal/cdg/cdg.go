// Package cdg computes control dependence graphs using the
// Ferrante–Ottenstein–Warren construction from the postdominator tree
// (reference [10] in the paper).
//
// A node B is control dependent on node A (with branch label l) iff A
// has an edge labeled l to some node from which B is always reached
// (B postdominates that successor) and B does not postdominate A
// itself. Operationally: for every CFG edge (A, S) where S does not
// postdominate... rather where A is not postdominated by S's subtree
// containing B, walk the postdominator tree from S up to, but not
// including, ipdom(A), marking every visited node control dependent
// on A.
//
// The dummy entry predicate of the paper's figures (node 0) falls out
// of the virtual Entry→Exit edge the cfg package adds: top-level
// statements become control dependent on Entry's "T" branch.
package cdg

import (
	"jumpslice/internal/cfg"
	"jumpslice/internal/dom"
)

// Dep is one direct control dependence: the node depends on From via
// its branch Label ("T"/"F" for predicates, a case value or "default"
// for switches).
type Dep struct {
	From  int
	Label string
}

// Graph is the control dependence graph of a flowgraph.
type Graph struct {
	CFG *cfg.Graph
	PDT *dom.Tree

	parents  [][]Dep // parents[n]: deps of node n, sorted by (From, Label)
	children [][]int // children[a]: nodes control dependent on a, sorted
}

// Build computes the control dependence graph given the flowgraph and
// its postdominator tree (rooted at Exit).
func Build(g *cfg.Graph, pdt *dom.Tree) *Graph {
	cd := &Graph{
		CFG:      g,
		PDT:      pdt,
		parents:  make([][]Dep, len(g.Nodes)),
		children: make([][]int, len(g.Nodes)),
	}

	// Nodes are visited in ID order, so a's dependences land at the
	// end of every row they reach: the trailing From == a run is the
	// only place a duplicate can sit, and addDep keeps it sorted by
	// label.
	for _, a := range g.Nodes {
		for _, e := range a.Out {
			s := e.To
			if !pdt.Reachable(s) || !pdt.Reachable(a.ID) {
				// Nodes on inescapable cycles have no postdominators;
				// control dependence is undefined for them and they
				// are skipped (documented limitation, DESIGN.md §4).
				continue
			}
			if pdt.Dominates(s, a.ID) {
				// The successor postdominates A: taking this edge is
				// not a choice that controls anything.
				continue
			}
			// Walk from s up the postdominator tree to ipdom(A),
			// exclusive. Every node on the way executes iff A takes
			// this branch.
			stop := pdt.Idom[a.ID]
			for v := s; v != stop; v = pdt.Idom[v] {
				cd.parents[v] = addDep(cd.parents[v], Dep{From: a.ID, Label: e.Label})
				if v == pdt.Root {
					break
				}
			}
		}
	}

	// Rows are visited in ID order, so each children list comes out
	// sorted; a row lists a parent's labels next to each other, so it
	// adds itself once per parent.
	for n, row := range cd.parents {
		for i, d := range row {
			if i == 0 || row[i-1].From != d.From {
				cd.children[d.From] = append(cd.children[d.From], n)
			}
		}
	}
	return cd
}

// addDep adds d to a row whose trailing run of d.From dependences is
// sorted by label, keeping it sorted and free of duplicates.
func addDep(row []Dep, d Dep) []Dep {
	i := len(row)
	for ; i > 0 && row[i-1].From == d.From && row[i-1].Label >= d.Label; i-- {
		if row[i-1].Label == d.Label {
			return row
		}
	}
	row = append(row, Dep{})
	copy(row[i+1:], row[i:])
	row[i] = d
	return row
}

// Parents returns the direct control dependences of node n, sorted.
// The slice is shared; callers must not modify it.
func (cd *Graph) Parents(n int) []Dep { return cd.parents[n] }

// ParentIDs returns just the controlling node IDs of n, de-duplicated
// and sorted (a node control dependent on both branches of a predicate
// lists it once).
func (cd *Graph) ParentIDs(n int) []int {
	ps := cd.parents[n]
	out := make([]int, 0, len(ps))
	for _, d := range ps {
		if len(out) == 0 || out[len(out)-1] != d.From {
			out = append(out, d.From)
		}
	}
	return out
}

// Children returns the nodes directly control dependent on a, sorted.
// The slice is shared; callers must not modify it.
func (cd *Graph) Children(a int) []int { return cd.children[a] }

// DependsOn reports whether n is directly control dependent on a.
func (cd *Graph) DependsOn(n, a int) bool {
	for _, d := range cd.parents[n] {
		if d.From == a {
			return true
		}
	}
	return false
}
