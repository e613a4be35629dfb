package pdg

import (
	"math/rand"
	"reflect"
	"testing"

	"jumpslice/internal/cdg"
	"jumpslice/internal/cfg"
	"jumpslice/internal/dataflow"
	"jumpslice/internal/dom"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
)

func build(t *testing.T, src string) (*cfg.Graph, *Graph) {
	t.Helper()
	g, err := cfg.Build(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	pdt := dom.PostDominators(g, g.Exit.ID)
	cd := cdg.Build(g, pdt)
	rd := dataflow.Reach(g)
	return g, Build(g, cd, rd, Invariants{})
}

// noCancel unwraps a closure call made without a cancel callback,
// which cannot fail.
func noCancel[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func lines(g *cfg.Graph, ids []int) []int {
	var out []int
	for _, id := range ids {
		out = append(out, g.Nodes[id].Line)
	}
	return out
}

// TestFigure2ProgramDependenceGraph verifies the merge on the paper's
// Figure 1-a: node 12's PDG deps are its data deps {2, 7} plus its
// control dep (entry, line 0).
func TestFigure2ProgramDependenceGraph(t *testing.T) {
	g, p := build(t, paper.Fig1().Source)
	n12 := g.NodesAtLine(12)[0]
	if got := lines(g, p.DataDeps(n12.ID)); !reflect.DeepEqual(got, []int{2, 7}) {
		t.Errorf("data deps of 12 = %v, want [2 7]", got)
	}
	if got := lines(g, p.ControlDeps(n12.ID)); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("control deps of 12 = %v, want [0] (entry)", got)
	}
	if got := lines(g, p.Deps(n12.ID)); !reflect.DeepEqual(got, []int{0, 2, 7}) {
		t.Errorf("merged deps of 12 = %v, want [0 2 7]", got)
	}
}

// TestFigure2BackwardClosure reproduces the shaded nodes of Figure
// 2-d: the transitive closure from node 12 selects lines 2,3,4,5,7
// (plus entry).
func TestFigure2BackwardClosure(t *testing.T) {
	g, p := build(t, paper.Fig1().Source)
	n12 := g.NodesAtLine(12)[0]
	set := noCancel(p.BackwardClosure([]int{n12.ID}, nil))
	wantLines := map[int]bool{0: true, 2: true, 3: true, 4: true, 5: true, 7: true, 12: true}
	set.ForEach(func(id int) {
		if !wantLines[g.Nodes[id].Line] {
			t.Errorf("unexpected node %v in closure", g.Nodes[id])
		}
	})
	for l := range wantLines {
		found := false
		set.ForEach(func(id int) {
			if g.Nodes[id].Line == l {
				found = true
			}
		})
		if !found {
			t.Errorf("closure missing line %d", l)
		}
	}
}

func TestBackwardClosureMultipleSeeds(t *testing.T) {
	g, p := build(t, "a = 1;\nb = 2;\nwrite(a);\nwrite(b);")
	s3 := g.NodesAtLine(3)[0]
	s4 := g.NodesAtLine(4)[0]
	set := noCancel(p.BackwardClosure([]int{s3.ID, s4.ID}, nil))
	for _, l := range []int{1, 2, 3, 4} {
		n := g.NodesAtLine(l)[0]
		if !set.Has(n.ID) {
			t.Errorf("closure missing line %d", l)
		}
	}
}

func TestGrowClosureIncremental(t *testing.T) {
	g, p := build(t, "a = 1;\nb = a;\nc = 5;\nwrite(b);\nwrite(c);")
	w4 := g.NodesAtLine(4)[0]
	set := noCancel(p.BackwardClosure([]int{w4.ID}, nil))
	c3 := g.NodesAtLine(3)[0]
	if set.Has(c3.ID) {
		t.Fatal("c = 5 should not be in the initial closure")
	}
	w5 := g.NodesAtLine(5)[0]
	if !noCancel(p.GrowClosure(set, w5.ID, nil)) {
		t.Error("GrowClosure should report change")
	}
	if !set.Has(c3.ID) {
		t.Error("growing from write(c) should add c = 5")
	}
	if noCancel(p.GrowClosure(set, w5.ID, nil)) {
		t.Error("second GrowClosure should be a no-op")
	}
}

func TestClosureFollowsControlThenData(t *testing.T) {
	// write(y) -> y=1 (data) -> if(x>0) (control) -> read(x) (data).
	g, p := build(t, "read(x);\nif (x > 0)\ny = 1;\nwrite(y);")
	w := g.NodesAtLine(4)[0]
	set := noCancel(p.BackwardClosure([]int{w.ID}, nil))
	for _, l := range []int{1, 2, 3, 4} {
		if !set.Has(g.NodesAtLine(l)[0].ID) {
			t.Errorf("closure missing line %d", l)
		}
	}
}

func TestJumpNodesHaveOnlyControlDeps(t *testing.T) {
	g, p := build(t, paper.Fig5().Source)
	for _, j := range g.Jumps() {
		if len(p.DataDeps(j.ID)) != 0 {
			t.Errorf("jump %v has data deps %v", j, p.DataDeps(j.ID))
		}
	}
}

func TestReturnValueHasDataDeps(t *testing.T) {
	// return e is the one jump with data dependences.
	g, p := build(t, "x = 1;\nreturn x + 1;")
	ret := g.NodesAtLine(2)[0]
	if got := lines(g, p.DataDeps(ret.ID)); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("return deps = %v, want [1]", got)
	}
}

// TestInvariantEdgesFormRowTails builds every paper figure with
// random invariant targets and checks the row layout the engines rely
// on: Deps keeps its plain meaning, each row is Deps followed by the
// invariant targets in kind order, the tail answers Invariant per
// kind, closures follow the tail, and Rederive keeps it.
func TestInvariantEdgesFormRowTails(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range paper.All() {
		g, plain := build(t, f.Source)
		n := len(g.Nodes)
		inv := Invariants{CondJump: make([]int, n), SwitchEnclosure: make([]int, n)}
		for v := 0; v < n; v++ {
			inv.CondJump[v], inv.SwitchEnclosure[v] = -1, -1
			if rng.Intn(3) == 0 {
				inv.CondJump[v] = rng.Intn(n)
			}
			if rng.Intn(3) == 0 {
				inv.SwitchEnclosure[v] = rng.Intn(n)
			}
		}
		rd := dataflow.Reach(g)
		p := Build(g, plain.CDG, rd, inv)
		for v := 0; v < n; v++ {
			if !equalInts(p.Deps(v), plain.Deps(v)) {
				t.Fatalf("%s: Deps(%d) = %v, want %v", f.Name, v, p.Deps(v), plain.Deps(v))
			}
			var tail []int
			for k, targets := range [][]int{inv.CondJump, inv.SwitchEnclosure} {
				if got := p.Invariant(v, Invariant(k)); got != targets[v] {
					t.Errorf("%s: Invariant(%d, %d) = %d, want %d", f.Name, v, k, got, targets[v])
				}
				if targets[v] >= 0 {
					tail = append(tail, targets[v])
				}
			}
			if !equalInts(p.InvariantDeps(v), tail) {
				t.Errorf("%s: InvariantDeps(%d) = %v, want %v", f.Name, v, p.InvariantDeps(v), tail)
			}
			if want := append(append([]int{}, plain.Deps(v)...), tail...); !equalInts(p.Rows()[v], want) {
				t.Errorf("%s: row %d = %v, want %v", f.Name, v, p.Rows()[v], want)
			}
			closure := noCancel(p.BackwardClosure([]int{v}, nil))
			for _, d := range tail {
				if !closure.Has(d) {
					t.Errorf("%s: closure of %d misses invariant target %d", f.Name, v, d)
				}
			}
			q := p.Rederive(g, plain.CDG, map[int][]int{v: rd.DataDepsOf(g.Nodes[v])})
			if !equalInts(q.Rows()[v], p.Rows()[v]) {
				t.Errorf("%s: Rederive row %d = %v, want %v", f.Name, v, q.Rows()[v], p.Rows()[v])
			}
		}
	}
}

// TestRowsAreCapped pins the one-backing-array layout of Build's rows:
// each row is capped at its length, so an append to one row can never
// overwrite the next.
func TestRowsAreCapped(t *testing.T) {
	_, p := build(t, paper.Fig8().Source)
	for n, row := range p.Rows() {
		if cap(row) != len(row) {
			t.Errorf("row %d has cap %d > len %d", n, cap(row), len(row))
		}
	}
}
