package dataflow

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"jumpslice/internal/bits"
	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// refReachingDefs is the reference formulation of Reach that the flat
// In matrix replaced: four *bits.Set per node (gen, kill, In, Out), kill
// built by comparing every pair of definitions of a variable. The
// differential tests hold Reach to it.
type refReachingDefs struct {
	g      *cfg.Graph
	Defs   []Def
	In     []*bits.Set
	Out    []*bits.Set
	defsOf map[string][]int
	defAt  map[int][]int
}

func refReach(g *cfg.Graph) *refReachingDefs {
	r := &refReachingDefs{g: g, defsOf: map[string][]int{}, defAt: map[int][]int{}}
	for _, n := range g.Nodes {
		for _, v := range defsOf(n) {
			idx := len(r.Defs)
			r.Defs = append(r.Defs, Def{Node: n.ID, Var: v})
			r.defsOf[v] = append(r.defsOf[v], idx)
			r.defAt[n.ID] = append(r.defAt[n.ID], idx)
		}
	}
	nd, nn := len(r.Defs), len(g.Nodes)
	gen := make([]*bits.Set, nn)
	kill := make([]*bits.Set, nn)
	r.In = make([]*bits.Set, nn)
	r.Out = make([]*bits.Set, nn)
	for i := 0; i < nn; i++ {
		gen[i], kill[i], r.In[i], r.Out[i] = bits.New(nd), bits.New(nd), bits.New(nd), bits.New(nd)
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

func (r *refReachingDefs) ReachingDefsOf(n int, v string) []int {
	var out []int
	for _, di := range r.defsOf[v] {
		if r.In[n].Has(di) {
			out = append(out, r.Defs[di].Node)
		}
	}
	sort.Ints(out)
	return out
}

func (r *refReachingDefs) DataDepsOf(n *cfg.Node) []int {
	var deps []int
	for _, v := range usesOf(n) {
		for _, di := range r.defsOf[v] {
			if r.In[n.ID].Has(di) {
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

// referenceGraphs returns the flowgraphs of the differential corpus:
// the testdata programs plus structured and unstructured progen
// programs of sizes 20 to 272.
func referenceGraphs(t *testing.T) map[string]*cfg.Graph {
	t.Helper()
	progs := map[string]*lang.Program{}
	files, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata corpus: %v", err)
	}
	for _, fn := range files {
		data, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(fn)] = lang.MustParse(string(data))
	}
	for _, size := range []int{20, 60, 136, 272} {
		for seed := int64(1); seed <= 4; seed++ {
			c := progen.Config{Seed: seed, Stmts: size}
			progs[fmt.Sprintf("structured/%d/%d", size, seed)] = progen.Structured(c)
			progs[fmt.Sprintf("unstructured/%d/%d", size, seed)] = progen.Unstructured(c)
		}
	}
	// A read defines its variable and the input cursor, so a
	// statement using both has two reaching definitions at one node.
	progs["read-then-eof"] = lang.MustParse("read(x);\nwhile (x > 0 && !eof()) { write(x + eof()); read(x); }\nwrite(x);")
	graphs := map[string]*cfg.Graph{}
	for name, p := range progs {
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs[name] = g
	}
	return graphs
}

// TestReachMatchesReference checks the flat-matrix Reach against the
// per-node-set reference: the same definition index, the same
// reaching definitions of every variable at every node, and the same
// data dependence rows.
func TestReachMatchesReference(t *testing.T) {
	for name, g := range referenceGraphs(t) {
		r, ref := Reach(g), refReach(g)
		if !reflect.DeepEqual(r.Defs, ref.Defs) {
			t.Fatalf("%s: Defs differ from the reference", name)
		}
		deps := r.DataDeps()
		for _, n := range g.Nodes {
			want := ref.DataDepsOf(n)
			if !reflect.DeepEqual(deps[n.ID], want) {
				t.Fatalf("%s: DataDeps()[%d] = %v, reference %v", name, n.ID, deps[n.ID], want)
			}
			if got := r.DataDepsOf(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: DataDepsOf(%d) = %v, reference %v", name, n.ID, got, want)
			}
			if c := cap(deps[n.ID]); c != len(deps[n.ID]) {
				t.Fatalf("%s: DataDeps()[%d] has cap %d > len %d: an append would overwrite the next row", name, n.ID, c, len(deps[n.ID]))
			}
			for v := range ref.defsOf {
				if got, want := r.ReachingDefsOf(n.ID, v), ref.ReachingDefsOf(n.ID, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ReachingDefsOf(%d, %s) = %v, reference %v", name, n.ID, v, got, want)
				}
			}
		}
	}
}
