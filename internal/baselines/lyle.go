package baselines

import (
	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/core"
)

// Lyle computes the slice with Lyle's conservative rule [22]: starting
// from the conventional slice, include every jump statement that lies
// between a slice statement and the criterion location in the control
// flowgraph — i.e. every jump reachable from some slice node from
// which the criterion is still reachable — together with the closure
// of its dependences, iterating to a fixpoint as the slice grows.
//
// The paper's Section 5 notes this includes the continue on line 11 of
// Figure 5 (and hence predicate 9), and every goto and predicate of
// Figure 3 — all avoidable, as the Figure 7 algorithm shows.
func Lyle(a *core.Analysis, c core.Criterion) (*core.Slice, error) {
	conv, err := a.Conventional(c)
	if err != nil {
		return nil, err
	}
	seeds, err := a.CriterionNodes(c)
	if err != nil {
		return nil, err
	}
	set := conv.Nodes
	s := &core.Slice{
		Analysis:  a,
		Criterion: c,
		Algorithm: "lyle",
		Nodes:     set,
	}

	reachesCriterion := reachesAny(a.CFG, seeds)
	for changed := true; changed; {
		changed = false
		fromSlice := reachableFrom(a.CFG, set)
		for _, j := range a.CFG.Jumps() {
			if set.Has(j.ID) || !fromSlice[j.ID] || !reachesCriterion[j.ID] {
				continue
			}
			a.PDG.GrowClosure(set, j.ID, nil)
			s.JumpsAdded = append(s.JumpsAdded, j.ID)
			changed = true
		}
	}
	s.Relabeled = a.RetargetLabels(set)
	return s, nil
}

// reachableFrom marks every node reachable (forward) from a member of
// set, including the members themselves.
func reachableFrom(g *cfg.Graph, set *bits.Set) []bool {
	seen := make([]bool, g.NumNodes())
	var stack []int
	set.ForEach(func(id int) {
		seen[id] = true
		stack = append(stack, id)
	})
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Nodes[v].Out {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// reachesAny marks every node from which some seed is reachable
// (backward reachability from the seeds).
func reachesAny(g *cfg.Graph, seeds []int) []bool {
	seen := make([]bool, g.NumNodes())
	var stack []int
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Nodes[v].In {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}
