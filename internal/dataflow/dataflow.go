// Package dataflow implements the classic bit-vector dataflow analyses
// the slicer needs: reaching definitions (from which flow/data
// dependence edges are derived) and live variables (used by ablation
// experiments and diagnostics).
//
// Analyses run over the cfg.Graph. A "definition" is a (node,
// variable) pair: assignments and read statements define their target
// variable; nothing else defines anything — in particular jump
// statements define nothing, which is precisely why conventional
// slicing can never include them (paper, Section 3, first paragraph).
//
// Input is modeled explicitly: the input stream cursor is a hidden
// variable (InputVar) that every read statement both uses and
// defines, and that eof() uses. Without it, deleting one read from a
// slice would silently shift the values every later read receives —
// the slice would consume a different prefix of the input than the
// original program, breaking Weiser's criterion in a way dependence
// closure could never see.
package dataflow

import (
	"slices"
	"sort"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
)

// Def is a single definition site: node ID and the variable it
// defines.
type Def struct {
	Node int
	Var  string
}

// InputVar is the hidden variable standing for the input stream
// cursor. It never collides with program variables, whose names are
// plain identifiers.
const InputVar = "$input"

// ReachingDefs is the result of reaching-definitions analysis.
type ReachingDefs struct {
	g *cfg.Graph
	// Defs indexes all definition sites; bit i in the sets below
	// refers to Defs[i].
	Defs []Def
	// In[n] is the set of definitions reaching the entry of node n.
	In []*bits.Set
	// Out[n] is the set of definitions leaving node n.
	Out []*bits.Set

	defsOf map[string][]int // variable -> def indices
	defAt  map[int][]int    // node ID -> def indices (a read defines two)
}

// Reach computes reaching definitions for the graph with the standard
// forward worklist iteration: out(n) = gen(n) ∪ (in(n) − kill(n)),
// in(n) = ∪ out(p) over predecessors p.
func Reach(g *cfg.Graph) *ReachingDefs {
	r := &ReachingDefs{
		g:      g,
		defsOf: map[string][]int{},
		defAt:  map[int][]int{},
	}
	for _, n := range g.Nodes {
		for _, v := range defsOf(n) {
			idx := len(r.Defs)
			r.Defs = append(r.Defs, Def{Node: n.ID, Var: v})
			r.defsOf[v] = append(r.defsOf[v], idx)
			r.defAt[n.ID] = append(r.defAt[n.ID], idx)
		}
	}

	nd := len(r.Defs)
	nn := len(g.Nodes)
	gen := make([]*bits.Set, nn)
	kill := make([]*bits.Set, nn)
	r.In = make([]*bits.Set, nn)
	r.Out = make([]*bits.Set, nn)
	for i := 0; i < nn; i++ {
		gen[i] = bits.New(nd)
		kill[i] = bits.New(nd)
		r.In[i] = bits.New(nd)
		r.Out[i] = bits.New(nd)
	}
	for i, n := range g.Nodes {
		for _, di := range r.defAt[n.ID] {
			gen[i].Add(di)
			for _, other := range r.defsOf[r.Defs[di].Var] {
				if other != di {
					kill[i].Add(other)
				}
			}
		}
	}

	// Worklist iteration in node order; the graph is small enough that
	// a simple round-robin loop converges quickly. Nodes unreachable
	// from Entry are excluded: their definitions never execute, so
	// they must not reach anything (e.g. an assignment after an
	// unconditional goto).
	reachable := g.Reachable()
	tmp := bits.New(nd)
	for changed := true; changed; {
		changed = false
		for i, n := range g.Nodes {
			if !reachable[n.ID] {
				continue
			}
			r.In[i].Clear()
			for _, p := range n.In {
				r.In[i].UnionWith(r.Out[p])
			}
			tmp.Copy(r.In[i])
			tmp.DifferenceWith(kill[i])
			tmp.UnionWith(gen[i])
			if !tmp.Equal(r.Out[i]) {
				r.Out[i].Copy(tmp)
				changed = true
			}
		}
	}
	return r
}

// DefsOf returns the variables a CFG node defines (including the
// input cursor for reads) — the DEF set of Weiser's formulation.
func DefsOf(n *cfg.Node) []string { return defsOf(n) }

// UsesOf returns the variables a CFG node references directly
// (including the input cursor for reads and eof() calls) — Weiser's
// REF set.
func UsesOf(n *cfg.Node) []string { return usesOf(n) }

// defsOf returns the variables a CFG node defines. A read defines its
// target variable and advances the input cursor.
func defsOf(n *cfg.Node) []string {
	if n.Stmt == nil {
		return nil
	}
	switch n.Kind {
	case cfg.KindAssign:
		return []string{lang.Def(n.Stmt)}
	case cfg.KindRead:
		return []string{lang.Def(n.Stmt), InputVar}
	case cfg.KindCall:
		// Value-result copy-out: a call kills and redefines every plain
		// identifier argument. This is what makes the SDG slice agree
		// with the slice of the inlined program — the copy-outs are real
		// definitions with real kills.
		if c, ok := lang.Unlabel(n.Stmt).(*lang.CallStmt); ok {
			return lang.CallOutVars(c)
		}
	}
	return nil
}

// usesOf returns the variables a CFG node uses directly. A read uses
// the input cursor (the value it stores depends on how much input has
// been consumed), and so does any statement calling eof().
func usesOf(n *cfg.Node) []string {
	if n.Stmt == nil {
		return nil
	}
	uses := lang.Uses(n.Stmt)
	if n.Kind == cfg.KindRead {
		return append(uses, InputVar)
	}
	if callsEOF(n.Stmt) {
		return append(uses[:len(uses):len(uses)], InputVar)
	}
	return uses
}

// callsEOF reports whether the statement's directly evaluated
// expression calls the eof() intrinsic.
func callsEOF(s lang.Stmt) bool {
	var e lang.Expr
	switch s := lang.Unlabel(s).(type) {
	case *lang.AssignStmt:
		e = s.Value
	case *lang.WriteStmt:
		e = s.Value
	case *lang.IfStmt:
		e = s.Cond
	case *lang.WhileStmt:
		e = s.Cond
	case *lang.SwitchStmt:
		e = s.Tag
	case *lang.ReturnStmt:
		e = s.Value
	case *lang.CallStmt:
		for _, a := range s.Args {
			for _, name := range lang.ExprCalls(nil, a) {
				if name == "eof" {
					return true
				}
			}
		}
		return false
	default:
		return false
	}
	for _, name := range lang.ExprCalls(nil, e) {
		if name == "eof" {
			return true
		}
	}
	return false
}

// ReachingDefsOf returns the definition sites of variable v that reach
// the entry of node n, as node IDs in ascending order.
func (r *ReachingDefs) ReachingDefsOf(n int, v string) []int {
	var out []int
	for _, di := range r.defsOf[v] {
		if r.In[n].Has(di) {
			out = append(out, r.Defs[di].Node)
		}
	}
	sort.Ints(out)
	return out
}

// DataDeps returns, for each node ID, the sorted set of node IDs it is
// directly data (flow) dependent on: the reaching definitions of each
// variable the node uses.
func (r *ReachingDefs) DataDeps() [][]int {
	out := make([][]int, len(r.g.Nodes))
	for _, n := range r.g.Nodes {
		out[n.ID] = r.DataDepsOf(n)
	}
	return out
}

// DataDepsOf returns the sorted set of node IDs a single node is
// directly data dependent on. The node may belong to a
// shape-identical copy of the analyzed graph — only its ID, kind, and
// statement are consulted — which is how the incremental engine
// recomputes the dependence row of an edited statement against an
// unchanged reaching-definitions result.
func (r *ReachingDefs) DataDepsOf(n *cfg.Node) []int {
	var deps []int
	in := r.In[n.ID]
	for _, v := range usesOf(n) {
		for _, di := range r.defsOf[v] {
			if in.Has(di) {
				deps = append(deps, r.Defs[di].Node)
			}
		}
	}
	if len(deps) == 0 {
		return nil
	}
	slices.Sort(deps)
	return slices.Compact(deps)
}

// WithGraph returns a view of the same reaching-definitions result
// bound to a different flowgraph, which must be shape-identical to
// the analyzed one (same node IDs, kinds, and definition sites). The
// In/Out sets and definition index are shared — they are immutable
// after Reach — so the view is free; it exists so a reused dataflow
// result answers queries about nodes of a freshly rebuilt graph.
func (r *ReachingDefs) WithGraph(g *cfg.Graph) *ReachingDefs {
	q := *r
	q.g = g
	return &q
}

// LiveVars is the result of live-variable analysis: In[n] holds the
// variables live on entry to node n.
type LiveVars struct {
	Vars []string
	In   []*bits.Set
	Out  []*bits.Set

	varIdx map[string]int
}

// Live computes live variables with the standard backward iteration:
// in(n) = use(n) ∪ (out(n) − def(n)), out(n) = ∪ in(s) over
// successors.
func Live(g *cfg.Graph) *LiveVars {
	names := lang.VarNames(g.Prog)
	lv := &LiveVars{Vars: names, varIdx: map[string]int{}}
	for i, v := range names {
		lv.varIdx[v] = i
	}
	nv := len(names)
	nn := len(g.Nodes)
	use := make([]*bits.Set, nn)
	def := make([]*bits.Set, nn)
	lv.In = make([]*bits.Set, nn)
	lv.Out = make([]*bits.Set, nn)
	for i := 0; i < nn; i++ {
		use[i] = bits.New(nv)
		def[i] = bits.New(nv)
		lv.In[i] = bits.New(nv)
		lv.Out[i] = bits.New(nv)
	}
	for i, n := range g.Nodes {
		for _, v := range usesOf(n) {
			if idx, ok := lv.varIdx[v]; ok {
				use[i].Add(idx)
			}
		}
		for _, v := range defsOf(n) {
			if idx, ok := lv.varIdx[v]; ok {
				def[i].Add(idx)
			}
		}
	}
	tmp := bits.New(nv)
	for changed := true; changed; {
		changed = false
		for i := nn - 1; i >= 0; i-- {
			lv.Out[i].Clear()
			for _, e := range g.Nodes[i].Out {
				lv.Out[i].UnionWith(lv.In[e.To])
			}
			tmp.Copy(lv.Out[i])
			tmp.DifferenceWith(def[i])
			tmp.UnionWith(use[i])
			if !tmp.Equal(lv.In[i]) {
				lv.In[i].Copy(tmp)
				changed = true
			}
		}
	}
	return lv
}

// LiveIn reports whether variable v is live on entry to node n.
func (lv *LiveVars) LiveIn(n int, v string) bool {
	i, ok := lv.varIdx[v]
	return ok && lv.In[n].Has(i)
}

// LiveOut reports whether variable v is live on exit from node n.
func (lv *LiveVars) LiveOut(n int, v string) bool {
	i, ok := lv.varIdx[v]
	return ok && lv.Out[n].Has(i)
}
