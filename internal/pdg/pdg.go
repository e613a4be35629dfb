// Package pdg merges the data dependence graph (from reaching
// definitions) and the control dependence graph into the program
// dependence graph of Ottenstein & Ottenstein (reference [24] in the
// paper), and provides the backward reachability that powers the
// conventional slicing algorithm.
//
// The graph is the one dependence relation every slicing engine
// walks: each node's row holds its data and control dependences
// followed by its invariant edges — the slice invariants of the
// paper's Section 3 and of switch enclosure, encoded as tagged
// dependence edges — so any backward closure over the rows is closed
// under both invariants by construction.
package pdg

import (
	mbits "math/bits"

	"jumpslice/internal/bits"
	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
)

// Invariant names a slice invariant Build encodes as a tagged edge.
type Invariant uint8

const (
	// CondJump is the edge from the predicate of a conditional jump
	// statement such as "if (e) goto L" to its jump: the predicate
	// serves no purpose in a slice without the accompanying jump
	// (Section 3's adaptation). As an edge it also covers predicates a
	// later closure pulls in — the paper's Figure 8, where admitting
	// jumps 11 and 13 brings predicate 9, and so its goto.
	CondJump Invariant = iota
	// SwitchEnclosure is the edge from a statement to the switch tag
	// immediately enclosing it: a slice is a projection of the
	// program, so a case body statement cannot appear without its
	// switch, even when it postdominates the dispatch and so is not
	// control dependent on it.
	SwitchEnclosure
)

// Invariants lists, per node ID, the target of each invariant edge,
// or -1 for none. A nil list means no edges of that kind.
type Invariants struct {
	CondJump        []int
	SwitchEnclosure []int
}

// Graph is a program dependence graph over the nodes of a flowgraph.
type Graph struct {
	CFG *cfg.Graph
	CDG *cdg.Graph

	dataDeps [][]int // dataDeps[n]: nodes n is data dependent on
	// rows[n] is n's full dependence row: the sorted union of its data
	// and control dependences (Deps), then its invariant targets in
	// Invariant order (the tail). inv[n] has bit k set when the tail
	// holds an edge of kind k.
	rows [][]int
	inv  []uint8
}

// Build merges control and data dependence and appends the invariant
// edges. The control dependence graph may come from either the plain
// flowgraph (Agrawal's setting) or an augmented flowgraph (the
// Ball–Horwitz baseline); the data dependence always comes from the
// plain flowgraph, which is why the reaching-definitions result is a
// separate argument.
func Build(g *cfg.Graph, cd *cdg.Graph, rd *dataflow.ReachingDefs, inv Invariants) *Graph {
	nn := len(g.Nodes)
	p := &Graph{CFG: g, CDG: cd, inv: make([]uint8, nn)}
	p.dataDeps = rd.DataDeps()
	byKind := [...][]int{CondJump: inv.CondJump, SwitchEnclosure: inv.SwitchEnclosure}
	// Every row is a capped sub-slice of one backing array, sized for
	// the longest rows the merge can produce so it never moves.
	size := 0
	for n := 0; n < nn; n++ {
		size += len(p.dataDeps[n]) + len(cd.Parents(n))
		for _, targets := range byKind {
			if targets != nil && targets[n] >= 0 {
				size++
			}
		}
	}
	buf := make([]int, 0, size)
	p.rows = make([][]int, nn)
	for n := range p.rows {
		start := len(buf)
		buf = appendRow(buf, p.dataDeps[n], cd.Parents(n))
		for k, targets := range byKind {
			if targets != nil && targets[n] >= 0 {
				buf = append(buf, targets[n])
				p.inv[n] |= 1 << k
			}
		}
		if end := len(buf); end > start {
			p.rows[n] = buf[start:end:end]
		}
	}
	return p
}

// appendRow appends to dst the sorted, de-duplicated union of a
// data-dependence row (sorted, de-duplicated) and the controlling
// nodes of a control-dependence row (sorted by From).
func appendRow(dst, data []int, control []cdg.Dep) []int {
	// next skips j past every dependence on control[j].From.
	next := func(j int) int {
		from := control[j].From
		for j++; j < len(control) && control[j].From == from; j++ {
		}
		return j
	}
	i, j := 0, 0
	for i < len(data) && j < len(control) {
		switch d, c := data[i], control[j].From; {
		case d < c:
			dst = append(dst, d)
			i++
		case c < d:
			dst = append(dst, c)
			j = next(j)
		default:
			dst = append(dst, d)
			i++
			j = next(j)
		}
	}
	dst = append(dst, data[i:]...)
	for j < len(control) {
		dst = append(dst, control[j].From)
		j = next(j)
	}
	return dst
}

// Rederive returns a graph over a shape-identical flowgraph that
// shares every dependence row of p except those of the nodes in
// newDataDeps, whose rows are replaced and re-merged with control
// dependence, keeping their invariant tails. It is the incremental
// engine's PDG step: after a same-shape edit, only the edited
// statements' data-dependence rows can differ, so rebuilding the
// whole graph is wasted work. p is not modified.
func (p *Graph) Rederive(g *cfg.Graph, cd *cdg.Graph, newDataDeps map[int][]int) *Graph {
	q := &Graph{CFG: g, CDG: cd, inv: p.inv}
	q.dataDeps = make([][]int, len(p.dataDeps))
	copy(q.dataDeps, p.dataDeps)
	q.rows = make([][]int, len(p.rows))
	copy(q.rows, p.rows)
	for n, dd := range newDataDeps {
		q.dataDeps[n] = dd
		tail := p.InvariantDeps(n)
		var row []int
		if k := len(dd) + len(cd.Parents(n)) + len(tail); k > 0 {
			row = append(appendRow(make([]int, 0, k), dd, cd.Parents(n)), tail...)
		}
		q.rows[n] = row
	}
	return q
}

// DataDeps returns the nodes n is directly data dependent on, sorted.
// The slice is shared; callers must not modify it.
func (p *Graph) DataDeps(n int) []int { return p.dataDeps[n] }

// ControlDeps returns the nodes n is directly control dependent on,
// de-duplicated and sorted.
func (p *Graph) ControlDeps(n int) []int { return p.CDG.ParentIDs(n) }

// Deps returns the union of data and control dependences of n, sorted
// — the row without its invariant tail. The slice is shared; callers
// must not modify it.
func (p *Graph) Deps(n int) []int {
	row := p.rows[n]
	k := len(row) - mbits.OnesCount8(p.inv[n])
	if k == 0 {
		return nil
	}
	return row[:k:k]
}

// InvariantDeps returns n's invariant targets — the tail of its row —
// in Invariant order. The slice is shared; callers must not modify it.
func (p *Graph) InvariantDeps(n int) []int {
	row := p.rows[n]
	return row[len(row)-mbits.OnesCount8(p.inv[n]):]
}

// Invariant returns the target of n's invariant edge of kind k, or -1
// when n has none.
func (p *Graph) Invariant(n int, k Invariant) int {
	m := p.inv[n] >> k
	if m&1 == 0 {
		return -1
	}
	row := p.rows[n]
	return row[len(row)-mbits.OnesCount8(m)]
}

// Rows returns every node's full dependence row: Deps(n) followed by
// InvariantDeps(n). Every closure walks these rows; Condense takes
// them as its relation. The slices are shared; callers must not
// modify them.
func (p *Graph) Rows() [][]int { return p.rows }

// cancelCheckNodes is the BFS cadence of cooperative cancellation:
// the closure walks consult their cancel callback once per this many
// node pops, keeping the per-pop cost of an attached context to one
// counter decrement.
const cancelCheckNodes = 1024

// BackwardClosure returns the set of nodes reachable from the seeds by
// following dependence rows backwards (the transitive closure of data
// and control dependence and the invariant edges — the conventional
// slicing engine). The seeds themselves are included.
//
// Cancellation is cooperative: every cancelCheckNodes node visits the
// walk calls cancel (nil disables the checks) and abandons the closure
// on a non-nil error, returning it.
func (p *Graph) BackwardClosure(seeds []int, cancel func() error) (*bits.Set, error) {
	out := bits.New(len(p.CFG.Nodes))
	var stack []int
	for _, s := range seeds {
		if !out.Has(s) {
			out.Add(s)
			stack = append(stack, s)
		}
	}
	if err := p.drain(out, stack, cancel); err != nil {
		return nil, err
	}
	return out, nil
}

// GrowClosure extends an existing slice set in place with the backward
// closure of the given seed, reporting whether anything was added.
// Agrawal's Figure 7 uses this when a jump statement is added to the
// slice: "Add the transitive closure of the dependence of J to Slice".
// cancel is consulted as in BackwardClosure; on cancellation the set
// holds a partial closure and must be discarded by the caller.
func (p *Graph) GrowClosure(set *bits.Set, seed int, cancel func() error) (bool, error) {
	if set.Has(seed) {
		return false, nil
	}
	set.Add(seed)
	if err := p.drain(set, []int{seed}, cancel); err != nil {
		return false, err
	}
	return true, nil
}

// drain runs the backward BFS from the stacked nodes into set,
// consulting cancel every cancelCheckNodes pops.
func (p *Graph) drain(set *bits.Set, stack []int, cancel func() error) error {
	budget := cancelCheckNodes
	for len(stack) > 0 {
		if cancel != nil {
			if budget--; budget <= 0 {
				budget = cancelCheckNodes
				if err := cancel(); err != nil {
					return err
				}
			}
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range p.rows[n] {
			if !set.Has(d) {
				set.Add(d)
				stack = append(stack, d)
			}
		}
	}
	return nil
}
