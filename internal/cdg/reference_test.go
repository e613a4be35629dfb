package cdg

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"jumpslice/internal/cfg"
	"jumpslice/internal/dom"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// refBuild is the reference formulation of Build that the ID-order
// construction replaced: dependences are de-duplicated through maps
// and every row is sorted afterwards. The differential test holds
// Build to it.
func refBuild(g *cfg.Graph, pdt *dom.Tree) *Graph {
	cd := &Graph{
		CFG:      g,
		PDT:      pdt,
		parents:  make([][]Dep, len(g.Nodes)),
		children: make([][]int, len(g.Nodes)),
	}
	type key struct {
		node int
		dep  Dep
	}
	seen := map[key]bool{}
	for _, a := range g.Nodes {
		for _, e := range a.Out {
			s := e.To
			if !pdt.Reachable(s) || !pdt.Reachable(a.ID) || pdt.Dominates(s, a.ID) {
				continue
			}
			stop := pdt.Idom[a.ID]
			for v := s; v != stop; v = pdt.Idom[v] {
				if k := (key{v, Dep{From: a.ID, Label: e.Label}}); !seen[k] {
					seen[k] = true
					cd.parents[v] = append(cd.parents[v], k.dep)
				}
				if v == pdt.Root {
					break
				}
			}
		}
	}
	childSeen := map[[2]int]bool{}
	for n := range cd.parents {
		sort.Slice(cd.parents[n], func(i, j int) bool {
			a, b := cd.parents[n][i], cd.parents[n][j]
			if a.From != b.From {
				return a.From < b.From
			}
			return a.Label < b.Label
		})
		for _, d := range cd.parents[n] {
			if k := [2]int{d.From, n}; !childSeen[k] {
				childSeen[k] = true
				cd.children[d.From] = append(cd.children[d.From], n)
			}
		}
	}
	for a := range cd.children {
		sort.Ints(cd.children[a])
	}
	return cd
}

// referencePrograms returns the differential corpus: the testdata
// programs plus structured and unstructured progen programs of sizes
// 20 to 272.
func referencePrograms(t *testing.T) map[string]*lang.Program {
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
	return progs
}

// TestBuildMatchesReference checks Build's Parents and Children rows
// against the map-dedupe reference on the corpus, on a program with an
// inescapable loop, whose nodes have no postdominators, and on a
// flowgraph whose predicates have every branch edge twice, so the same
// dependence is reached twice.
func TestBuildMatchesReference(t *testing.T) {
	progs := referencePrograms(t)
	progs["infinite-loop"] = lang.MustParse("read(x);\nwhile (1) { if (x) x = x - 1; else x = 2; }\nwrite(x);")
	graphs := map[string]*cfg.Graph{}
	for name, p := range progs {
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs[name] = g
	}
	doubled := cfg.MustBuild(lang.MustParse(paper.Fig3().Source))
	for _, n := range doubled.Nodes {
		if n.Kind.IsPredicate() {
			for _, e := range n.Out {
				doubled.AddEdge(n, doubled.Nodes[e.To], e.Label)
			}
		}
	}
	graphs["fig3-doubled-edges"] = doubled
	for name, g := range graphs {
		pdt := dom.PostDominators(g, g.Exit.ID)
		cd, ref := Build(g, pdt), refBuild(g, pdt)
		for n := range g.Nodes {
			if got, want := cd.Parents(n), ref.Parents(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Parents(%d) = %v, reference %v", name, n, got, want)
			}
			if got, want := cd.Children(n), ref.Children(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Children(%d) = %v, reference %v", name, n, got, want)
			}
		}
	}
}
