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
	mbits "math/bits"

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
	// Defs indexes all definition sites in node order; bit i of a
	// definition row refers to Defs[i].
	Defs []Def

	// Definition sets are rows of stride words in flat matrices. in
	// holds one row per node: the definitions reaching its entry.
	// varMask holds one row per variable: all of its definitions, in
	// the variable numbering of varIdx.
	in      []uint64
	varMask []uint64
	stride  int
	varIdx  map[string]int
}

// Reach computes reaching definitions for the graph with the standard
// forward worklist iteration: out(n) = gen(n) ∪ (in(n) − kill(n)),
// in(n) = ∪ out(p) over predecessors p. Every set is a row of a flat
// word matrix; of the node matrices only In outlives the call.
func Reach(g *cfg.Graph) *ReachingDefs {
	nn := len(g.Nodes)
	r := &ReachingDefs{g: g, varIdx: map[string]int{}}
	// defVar[di] is the variable number of definition di; node i
	// defines Defs[firstDef[i]:firstDef[i+1]].
	var defVar []int
	firstDef := make([]int, nn+1)
	for i, n := range g.Nodes {
		firstDef[i] = len(r.Defs)
		for _, v := range defsOf(n) {
			vi, ok := r.varIdx[v]
			if !ok {
				vi = len(r.varIdx)
				r.varIdx[v] = vi
			}
			r.Defs = append(r.Defs, Def{Node: n.ID, Var: v})
			defVar = append(defVar, vi)
		}
	}
	firstDef[nn] = len(r.Defs)

	stride := (len(r.Defs) + 63) / 64
	r.stride = stride
	r.varMask = make([]uint64, len(r.varIdx)*stride)
	for di, vi := range defVar {
		r.varMask[vi*stride+di/64] |= 1 << (di % 64)
	}
	// A node kills every definition of the variables it defines. Its
	// own definitions are among them, but gen adds them back, so
	// out(n) is the textbook one.
	size := nn * stride
	r.in = make([]uint64, size)
	// out, gen and kill share one transient allocation; r.in is its
	// own so that it alone stays resident.
	work := make([]uint64, 3*size)
	out, gen, kill := work[:size], work[size:2*size], work[2*size:]
	for i := 0; i < nn; i++ {
		row := i * stride
		for di := firstDef[i]; di < firstDef[i+1]; di++ {
			gen[row+di/64] |= 1 << (di % 64)
			for w, m := range r.mask(defVar[di]) {
				kill[row+w] |= m
			}
		}
	}

	// Worklist iteration in node order; the graph is small enough that
	// a simple round-robin loop converges quickly. Nodes unreachable
	// from Entry are excluded: their definitions never execute, so
	// they must not reach anything (e.g. an assignment after an
	// unconditional goto).
	reachable := g.Reachable()
	for changed := true; changed; {
		changed = false
		for i, n := range g.Nodes {
			if !reachable[n.ID] {
				continue
			}
			row := i * stride
			in := r.in[row : row+stride]
			clear(in)
			for _, p := range n.In {
				for w, x := range out[p*stride : p*stride+stride] {
					in[w] |= x
				}
			}
			for w, x := range in {
				if o := gen[row+w] | x&^kill[row+w]; o != out[row+w] {
					out[row+w] = o
					changed = true
				}
			}
		}
	}
	return r
}

// inRow returns the definitions reaching the entry of node n.
func (r *ReachingDefs) inRow(n int) []uint64 { return r.in[n*r.stride : (n+1)*r.stride] }

// mask returns every definition of variable number vi.
func (r *ReachingDefs) mask(vi int) []uint64 {
	return r.varMask[vi*r.stride : (vi+1)*r.stride]
}

// appendDefNodes appends the nodes of the definitions in a ∩ b, once
// each, in definition order, which is ascending node order.
func (r *ReachingDefs) appendDefNodes(dst []int, a, b []uint64) []int {
	last := -1
	for w, x := range a {
		for x &= b[w]; x != 0; x &= x - 1 {
			if node := r.Defs[w*64+mbits.TrailingZeros64(x)].Node; node != last {
				dst = append(dst, node)
				last = node
			}
		}
	}
	return dst
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
	vi, ok := r.varIdx[v]
	if !ok {
		return nil
	}
	return r.appendDefNodes(nil, r.inRow(n), r.mask(vi))
}

// DataDeps returns, for each node ID, the sorted set of node IDs it is
// directly data (flow) dependent on: the reaching definitions of each
// variable the node uses. All rows share one backing array; each row
// is capped at its own length.
func (r *ReachingDefs) DataDeps() [][]int {
	out := make([][]int, len(r.g.Nodes))
	buf := make([]int, 0, 2*len(r.g.Nodes))
	used := make([]uint64, r.stride)
	for _, n := range r.g.Nodes {
		start := len(buf)
		buf = r.appendDataDeps(buf, n, used)
		// Only the row's length is kept here: buf may still move.
		out[n.ID] = buf[start:]
	}
	off := 0
	for id, row := range out {
		if k := len(row); k > 0 {
			out[id] = buf[off : off+k : off+k]
			off += k
		} else {
			out[id] = nil
		}
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
	return r.appendDataDeps(nil, n, make([]uint64, r.stride))
}

// appendDataDeps appends n's sorted, de-duplicated data dependences to
// dst: the nodes of the reaching definitions of every variable n
// uses. used is a stride-word scratch row.
func (r *ReachingDefs) appendDataDeps(dst []int, n *cfg.Node, used []uint64) []int {
	clear(used)
	for _, v := range usesOf(n) {
		if vi, ok := r.varIdx[v]; ok {
			for w, m := range r.mask(vi) {
				used[w] |= m
			}
		}
	}
	return r.appendDefNodes(dst, r.inRow(n.ID), used)
}

// WithGraph returns a view of the same reaching-definitions result
// bound to a different flowgraph, which must be shape-identical to
// the analyzed one (same node IDs, kinds, and definition sites). The
// In matrix and definition index are shared — they are immutable
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
