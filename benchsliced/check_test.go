package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"jumpslice/internal/baselines"
	"jumpslice/internal/core"
	"jumpslice/internal/lang"
)

// answer computes what the daemon answers for crit on src, in the
// checker's decoded form.
func answer(t *testing.T, src string, crit core.Criterion, explain bool) *response {
	t.Helper()
	a, err := core.Analyze(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := a.Agrawal(crit)
	if err != nil {
		t.Fatal(err)
	}
	r := &response{Var: crit.Var, Line: crit.Line, Lines: sl.Lines(), Text: sl.Format()}
	for _, id := range sl.JumpsAdded {
		r.JumpLines = append(r.JumpLines, a.CFG.Nodes[id].Line)
	}
	if explain {
		p, err := sl.Explain()
		if err != nil {
			t.Fatal(err)
		}
		r.Reasons = map[string][]string{}
		for l, rs := range p.LineReasons() {
			r.Reasons[strconv.Itoa(l)] = rs
		}
		r.Listing = p.Listing()
	}
	return r
}

// jumpCase finds an unstructured program and criterion whose slice
// admits a jump and equals the Ball–Horwitz slice, so that dropping
// the jump must be caught.
func jumpCase(t *testing.T) (string, core.Criterion) {
	t.Helper()
	for i := 1; i < 200; i += 2 {
		p := generate(1, "check-test", i, 60)
		a, err := core.Analyze(lang.MustParse(p.src))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range p.crits {
			sl, err := a.Agrawal(c)
			if err != nil || len(sl.JumpsAdded) == 0 {
				continue
			}
			bh, err := baselines.BallHorwitz(a, c)
			if err == nil && fmt.Sprint(bh.Lines()) == fmt.Sprint(sl.Lines()) {
				return p.src, c
			}
		}
	}
	t.Fatal("no generated case admits a jump")
	return "", core.Criterion{}
}

func checkOne(t *testing.T, src string, crit core.Criterion, explain bool, r *response) verdict {
	t.Helper()
	o, err := newOrigin(src)
	if err != nil {
		t.Fatal(err)
	}
	return o.check(crit, explain, r)
}

func without(xs []int, x int) []int {
	var out []int
	for _, y := range xs {
		if y != x {
			out = append(out, y)
		}
	}
	return out
}

func dropTextLine(text string, line int) string {
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^\s*%d: .*\n`, line))
	return re.ReplaceAllString(text, "")
}

func TestCheckerAcceptsTrueAnswers(t *testing.T) {
	src, crit := jumpCase(t)
	for _, explain := range []bool{false, true} {
		if v := checkOne(t, src, crit, explain, answer(t, src, crit, explain)); v.err != nil {
			t.Errorf("explain=%v: true answer rejected: %v", explain, v.err)
		}
	}
}

func TestCheckerRejectsTamperedAnswers(t *testing.T) {
	src, crit := jumpCase(t)
	jump := answer(t, src, crit, false).JumpLines[0]
	for _, tc := range []struct {
		name   string
		tamper func(r *response)
	}{
		{"jump dropped from lines", func(r *response) {
			r.Lines, r.JumpLines = without(r.Lines, jump), without(r.JumpLines, jump)
		}},
		{"jump dropped from lines and text", func(r *response) {
			r.Lines, r.JumpLines = without(r.Lines, jump), without(r.JumpLines, jump)
			r.Text = dropTextLine(r.Text, jump)
		}},
		{"statement dropped from text", func(r *response) {
			r.Text = dropTextLine(r.Text, r.Lines[0])
		}},
		{"criterion statement altered", func(r *response) {
			r.Text = strings.Replace(r.Text, fmt.Sprintf("write(%s);", crit.Var), "write(0);", 1)
		}},
		{"text no longer parses", func(r *response) {
			r.Text = strings.Replace(r.Text, ";", "", 1)
		}},
		{"criterion swapped", func(r *response) { r.Line++ }},
		{"jump line outside lines", func(r *response) { r.JumpLines = append(r.JumpLines, 100000) }},
	} {
		r := answer(t, src, crit, false)
		tc.tamper(r)
		if v := checkOne(t, src, crit, false, r); v.err == nil {
			t.Errorf("%s: tampered answer accepted", tc.name)
		}
	}
	r := answer(t, src, crit, true)
	delete(r.Reasons, strconv.Itoa(jump))
	if v := checkOne(t, src, crit, true, r); v.err == nil {
		t.Error("explain answer missing a line's reasons accepted")
	}
}

func TestCheckDelta(t *testing.T) {
	r := &response{Lines: []int{1, 2, 4}, LinesAdded: []int{4}, LinesRemoved: []int{3}}
	if err := checkDelta([]int{1, 2, 3}, r); err != nil {
		t.Errorf("consistent delta rejected: %v", err)
	}
	r.LinesAdded = nil
	if err := checkDelta([]int{1, 2, 3}, r); err == nil {
		t.Error("missing lines_added entry accepted")
	}
}

func TestPlaceOnLines(t *testing.T) {
	text := "  2: x = 0;\n  3: while (x < 3) {\n  4:     x = x + 1;\n     }\n  6: write(x);\n"
	src, printed, simple := placeOnLines(text)
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("placed text does not parse: %v\n%s", err, src)
	}
	lines := map[int]bool{}
	lang.WalkProgram(p, func(s lang.Stmt) { lines[s.Pos().Line] = true })
	for _, l := range []int{2, 3, 4, 6} {
		if !lines[l] || !printed[l] {
			t.Errorf("line %d lost its statement", l)
		}
	}
	if simple[3] || !simple[4] {
		t.Errorf("simple = %v: the while header is compound, line 4 simple", simple)
	}
}
