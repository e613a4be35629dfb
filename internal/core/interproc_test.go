package core

import (
	"context"
	"strings"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
)

func mustSet(t *testing.T, src string) *ProgramSet {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ps, err := AnalyzeProgramSet(context.Background(), prog, nil, nil)
	if err != nil {
		t.Fatalf("analyze set: %v", err)
	}
	return ps
}

const twoProcSrc = `proc add(s, x) {
    s = s + x;
}
read(a);
read(b);
sum = 0;
cnt = 0;
call add(sum, a);
call add(cnt, b);
write(sum);
write(cnt);
`

func TestSliceInterprocCrossesCallBoundary(t *testing.T) {
	ps := mustSet(t, twoProcSrc)
	s, err := ps.SliceInterproc(Criterion{Var: "sum", Line: 10})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	lines := s.Lines()
	want := []int{2, 4, 6, 8, 10}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v, want %v", lines, want)
	}
	for i, l := range want {
		if lines[i] != l {
			t.Fatalf("lines = %v, want %v", lines, want)
		}
	}
	// The materialized slice must keep the proc declaration and drop
	// the cnt call chain.
	text := s.Format()
	if !strings.Contains(text, "proc add(s, x)") {
		t.Errorf("materialized slice lost the proc declaration:\n%s", text)
	}
	if strings.Contains(text, "cnt") {
		t.Errorf("materialized slice kept the unrelated cnt chain:\n%s", text)
	}
}

func TestSliceInterprocIrrelevantCalleeDropped(t *testing.T) {
	src := `proc double(v) {
    v = v * 2;
}
proc zero(v) {
    v = 0;
}
read(a);
read(b);
call double(a);
call zero(b);
write(a);
`
	ps := mustSet(t, src)
	s, err := ps.SliceInterproc(Criterion{Var: "a", Line: 10})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	text := s.Format()
	if !strings.Contains(text, "proc double") {
		t.Errorf("slice lost relevant proc double:\n%s", text)
	}
	if strings.Contains(text, "proc zero") {
		t.Errorf("slice kept irrelevant proc zero:\n%s", text)
	}
	if strings.Contains(text, "read(b)") {
		t.Errorf("slice kept irrelevant read(b):\n%s", text)
	}
}

func TestSliceInterprocJumpRepairInCallee(t *testing.T) {
	// The callee is the paper's Figure 10-a program (the unstructured
	// example needing two productive Figure 7 traversals), with its
	// writes replaced by out-parameters. The per-procedure repair must
	// admit the same jumps the intraprocedural algorithm admits.
	src := `proc weave(x, y, z) {
    if (c1()) {
        goto L6;
L3:     y = f1();
        goto L8;
    }
    z = g1();
L6: x = h1();
    goto L3;
L8: ;
}
call weave(a, b, c);
write(b);
`
	ps := mustSet(t, src)
	s, err := ps.SliceInterproc(Criterion{Var: "b", Line: 13})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	if s.JumpsAdded == 0 {
		t.Fatalf("expected the callee's gotos to be admitted by jump repair; slice:\n%s", s.Format())
	}
	text := s.Format()
	for _, want := range []string{"goto L6;", "goto L3;", "goto L8;"} {
		if !strings.Contains(text, want) {
			t.Errorf("slice lost %q:\n%s", want, text)
		}
	}
}

func TestSliceInterprocSingleProcMatchesAgrawal(t *testing.T) {
	// Figure 5's program (single procedure): the SDG slice must be
	// byte-identical to the intraprocedural Agrawal slice.
	src := `read(n);
i = 1;
sum = 0;
prod = 1;
while (i <= n) {
    if (i % 2 == 0) {
        sum = sum + i;
    }
    prod = prod * i;
    i = i + 1;
    if (prod > 100) {
        break;
    }
}
write(sum);
write(prod);
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	ps := mustSet(t, src)
	for _, c := range []Criterion{{Var: "prod", Line: 16}, {Var: "sum", Line: 15}, {Var: "i", Line: 10}} {
		want, err := a.Agrawal(c)
		if err != nil {
			t.Fatalf("agrawal %v: %v", c, err)
		}
		got, err := ps.SliceInterproc(c)
		if err != nil {
			t.Fatalf("sdg %v: %v", c, err)
		}
		if got.Format() != want.Format() {
			t.Errorf("criterion %v: sdg slice differs from agrawal\nsdg:\n%s\nagrawal:\n%s", c, got.Format(), want.Format())
		}
	}
}

func TestSliceInterprocPaperFiguresMatchAgrawal(t *testing.T) {
	// Every paper figure is a single-procedure program; the SDG slice
	// must be byte-identical to the Figure 7 slice on all of them.
	for _, f := range paper.All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			a := analyzeFig(t, f)
			c := crit(f)
			want, err := a.Agrawal(c)
			if err != nil {
				t.Fatalf("agrawal: %v", err)
			}
			ps, err := AnalyzeProgramSet(context.Background(), f.Parse(), nil, nil)
			if err != nil {
				t.Fatalf("analyze set: %v", err)
			}
			got, err := ps.SliceInterproc(c)
			if err != nil {
				t.Fatalf("sdg: %v", err)
			}
			if got.Format() != want.Format() {
				t.Errorf("sdg slice differs from agrawal\nsdg:\n%s\nagrawal:\n%s", got.Format(), want.Format())
			}
			if g, w := got.JumpsAdded, len(want.JumpsAdded); g != w {
				t.Errorf("sdg admitted %d jumps, agrawal %d", g, w)
			}
		})
	}
}

func TestSliceInterprocExplainNamesParamEdges(t *testing.T) {
	ps := mustSet(t, twoProcSrc)
	s, err := ps.SliceInterproc(Criterion{Var: "sum", Line: 10})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	var all []string
	for _, rs := range s.EdgeReasons() {
		all = append(all, rs...)
	}
	joined := strings.Join(all, "\n")
	for _, kind := range []string{"param-in", "param-out", "summary", "call"} {
		if !strings.Contains(joined, kind) {
			t.Errorf("edge reasons missing %q:\n%s", kind, joined)
		}
	}
}

func TestSliceInterprocWarmSummariesReused(t *testing.T) {
	ps := mustSet(t, twoProcSrc)
	if ps.SDG.SummariesComputed() {
		t.Fatal("summaries computed before first slice")
	}
	if _, err := ps.SliceInterproc(Criterion{Var: "sum", Line: 10}); err != nil {
		t.Fatalf("slice: %v", err)
	}
	if !ps.SDG.SummariesComputed() {
		t.Fatal("summaries not computed by first slice")
	}
	// Second slice of a different criterion reuses them (observable
	// only as "still computed and no error"; the perf gate measures
	// the actual speedup).
	if _, err := ps.SliceInterproc(Criterion{Var: "cnt", Line: 11}); err != nil {
		t.Fatalf("warm slice: %v", err)
	}
}
