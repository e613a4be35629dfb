package lang_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// The reference printer: the fmt-based formulation the printer had
// before it wrote straight into one builder. It is kept, unchanged in
// behaviour, as the oracle the differential tests hold Format,
// FormatStmt, StmtString and ExprString to byte for byte.

type refPrinter struct {
	opts  lang.PrintOptions
	sb    strings.Builder
	depth int
}

// refFormat is the reference Format.
func refFormat(p *lang.Program, opts lang.PrintOptions) string {
	pr := &refPrinter{opts: opts}
	if pr.opts.Indent == "" {
		pr.opts.Indent = "    "
	}
	for _, d := range p.Procs {
		pr.proc(d)
	}
	for _, s := range p.Body {
		pr.stmt(s)
	}
	return pr.sb.String()
}

// proc prints one procedure declaration with its body indented.
func (pr *refPrinter) proc(d *lang.ProcDecl) {
	pr.line(d.P, "proc %s(%s) {", d.Name, strings.Join(d.Params, ", "))
	pr.depth++
	for _, s := range d.Body {
		pr.stmt(s)
	}
	pr.depth--
	pr.line(lang.Pos{}, "}")
}

// refFormatStmt is the reference FormatStmt.
func refFormatStmt(s lang.Stmt, opts lang.PrintOptions) string {
	pr := &refPrinter{opts: opts}
	if pr.opts.Indent == "" {
		pr.opts.Indent = "    "
	}
	pr.stmt(s)
	return pr.sb.String()
}

func (pr *refPrinter) line(pos lang.Pos, format string, args ...any) {
	if pr.opts.LineNumbers {
		if pos.Line > 0 {
			fmt.Fprintf(&pr.sb, "%3d: ", pos.Line)
		} else {
			pr.sb.WriteString("     ")
		}
	}
	pr.sb.WriteString(strings.Repeat(pr.opts.Indent, pr.depth))
	fmt.Fprintf(&pr.sb, format, args...)
	pr.sb.WriteByte('\n')
}

func (pr *refPrinter) stmt(s lang.Stmt) {
	switch s := s.(type) {
	case nil:
	case *lang.AssignStmt:
		pr.line(s.P, "%s = %s;", s.Name, refExprString(s.Value))
	case *lang.ReadStmt:
		pr.line(s.P, "read(%s);", s.Name)
	case *lang.WriteStmt:
		pr.line(s.P, "write(%s);", refExprString(s.Value))
	case *lang.GotoStmt:
		pr.line(s.P, "goto %s;", s.Label)
	case *lang.BreakStmt:
		pr.line(s.P, "break;")
	case *lang.ContinueStmt:
		pr.line(s.P, "continue;")
	case *lang.ReturnStmt:
		if s.Value != nil {
			pr.line(s.P, "return %s;", refExprString(s.Value))
		} else {
			pr.line(s.P, "return;")
		}
	case *lang.CallStmt:
		pr.line(s.P, "%s", refSimple(s))
	case *lang.EmptyStmt:
		pr.line(s.P, ";")
	case *lang.LabeledStmt:
		// The label shares its statement's line in the paper's style
		// ("8: L8: positives = positives + 1;"), but nested labels and
		// labels on compound statements are clearer on their own line
		// only when the inner statement is compound.
		switch inner := lang.Unlabel(s).(type) {
		case *lang.AssignStmt, *lang.ReadStmt, *lang.WriteStmt, *lang.GotoStmt, *lang.BreakStmt,
			*lang.ContinueStmt, *lang.ReturnStmt, *lang.CallStmt, *lang.EmptyStmt:
			pr.line(s.P, "%s%s", refLabelPrefix(s), refSimple(inner))
		case *lang.IfStmt:
			// Inline a labeled conditional jump:
			// "3: L3: if (eof()) goto L14;".
			if inner.Else == nil && lang.IsJump(lang.Unlabel(inner.Then)) {
				if _, wrapped := inner.Then.(*lang.LabeledStmt); !wrapped {
					pr.line(s.P, "%sif (%s) %s", refLabelPrefix(s),
						refExprString(inner.Cond), refSimple(lang.Unlabel(inner.Then)))
					return
				}
			}
			pr.line(s.P, "%s", strings.TrimSuffix(refLabelPrefix(s), " "))
			pr.stmt(inner)
		default:
			pr.line(s.P, "%s", strings.TrimSuffix(refLabelPrefix(s), " "))
			pr.stmt(lang.Unlabel(s))
		}
	case *lang.BlockStmt:
		pr.line(s.P, "{")
		pr.depth++
		for _, st := range s.List {
			pr.stmt(st)
		}
		pr.depth--
		pr.line(lang.Pos{}, "}")
	case *lang.IfStmt:
		// The conditional-jump idiom prints on one line, matching the
		// paper's "3: L3: if (eof()) goto L14;" style.
		if s.Else == nil {
			if j, ok := s.Then.(lang.Stmt); ok && lang.IsJump(lang.Unlabel(j)) {
				if _, isLabeled := j.(*lang.LabeledStmt); !isLabeled {
					pr.line(s.P, "if (%s) %s", refExprString(s.Cond), refSimple(lang.Unlabel(j)))
					return
				}
			}
		}
		pr.line(s.P, "if (%s)%s", refExprString(s.Cond), refBraceOpen(s.Then))
		pr.body(s.Then)
		if s.Else != nil {
			pr.line(lang.Pos{}, "else%s", refBraceOpen(s.Else))
			pr.body(s.Else)
		}
	case *lang.WhileStmt:
		pr.line(s.P, "while (%s)%s", refExprString(s.Cond), refBraceOpen(s.Body))
		pr.body(s.Body)
	case *lang.SwitchStmt:
		pr.line(s.P, "switch (%s) {", refExprString(s.Tag))
		for _, c := range s.Cases {
			if c.IsDefault {
				pr.line(c.P, "default:")
			} else {
				vals := make([]string, len(c.Values))
				for i, v := range c.Values {
					vals[i] = fmt.Sprintf("%d", v)
				}
				pr.line(c.P, "case %s:", strings.Join(vals, ", "))
			}
			pr.depth++
			for _, st := range c.Body {
				pr.stmt(st)
			}
			pr.depth--
		}
		pr.line(lang.Pos{}, "}")
	default:
		pr.line(s.Pos(), "/* unknown statement %T */", s)
	}
}

// body prints the body of an if/while arm: blocks inline their braces,
// other statements are indented one level.
func (pr *refPrinter) body(s lang.Stmt) {
	if blk, ok := s.(*lang.BlockStmt); ok {
		pr.depth++
		for _, st := range blk.List {
			pr.stmt(st)
		}
		pr.depth--
		pr.line(lang.Pos{}, "}")
		return
	}
	pr.depth++
	pr.stmt(s)
	pr.depth--
}

func refBraceOpen(s lang.Stmt) string {
	if _, ok := s.(*lang.BlockStmt); ok {
		return " {"
	}
	return ""
}

// refLabelPrefix renders the (possibly nested) labels of s: "L8: ".
func refLabelPrefix(s lang.Stmt) string {
	var sb strings.Builder
	for {
		l, ok := s.(*lang.LabeledStmt)
		if !ok {
			return sb.String()
		}
		sb.WriteString(l.Label)
		sb.WriteString(": ")
		s = l.Stmt
	}
}

// refSimple renders a simple (non-compound) statement without a
// trailing newline, for inlining after a label.
func refSimple(s lang.Stmt) string {
	switch s := s.(type) {
	case *lang.AssignStmt:
		return fmt.Sprintf("%s = %s;", s.Name, refExprString(s.Value))
	case *lang.ReadStmt:
		return fmt.Sprintf("read(%s);", s.Name)
	case *lang.WriteStmt:
		return fmt.Sprintf("write(%s);", refExprString(s.Value))
	case *lang.GotoStmt:
		return fmt.Sprintf("goto %s;", s.Label)
	case *lang.BreakStmt:
		return "break;"
	case *lang.ContinueStmt:
		return "continue;"
	case *lang.ReturnStmt:
		if s.Value != nil {
			return fmt.Sprintf("return %s;", refExprString(s.Value))
		}
		return "return;"
	case *lang.CallStmt:
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = refExprString(a)
		}
		return fmt.Sprintf("call %s(%s);", s.Name, strings.Join(args, ", "))
	case *lang.EmptyStmt:
		return ";"
	}
	return fmt.Sprintf("/* %T */", s)
}

// refStmtString renders a one-line summary of a statement: simple
// statements in full, compound statements as their header ("if (x <=
// 0)", "switch (c())"). Used by graph visualizations and diagnostics.
func refStmtString(s lang.Stmt) string {
	s2 := lang.Unlabel(s)
	switch s2 := s2.(type) {
	case *lang.IfStmt:
		return fmt.Sprintf("if (%s)", refExprString(s2.Cond))
	case *lang.WhileStmt:
		return fmt.Sprintf("while (%s)", refExprString(s2.Cond))
	case *lang.SwitchStmt:
		return fmt.Sprintf("switch (%s)", refExprString(s2.Tag))
	case *lang.BlockStmt:
		return "{...}"
	default:
		return refLabelPrefix(s) + refSimple(s2)
	}
}

// precedence levels for minimal parenthesization when printing.
func refPrec(e lang.Expr) int {
	switch e := e.(type) {
	case *lang.BinaryExpr:
		switch e.Op {
		case "||":
			return 1
		case "&&":
			return 2
		case "==", "!=", "<", "<=", ">", ">=":
			return 3
		case "+", "-":
			return 4
		default: // * / %
			return 5
		}
	case *lang.UnaryExpr:
		return 6
	default:
		return 7
	}
}

// refExprString renders an expression with minimal parentheses.
func refExprString(e lang.Expr) string {
	switch e := e.(type) {
	case nil:
		return ""
	case *lang.IntLit:
		return fmt.Sprintf("%d", e.Value)
	case *lang.Ident:
		return e.Name
	case *lang.CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = refExprString(a)
		}
		return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
	case *lang.UnaryExpr:
		x := refExprString(e.X)
		if refPrec(e.X) < refPrec(e) {
			x = "(" + x + ")"
		}
		return e.Op + x
	case *lang.BinaryExpr:
		x, y := refExprString(e.X), refExprString(e.Y)
		if refPrec(e.X) < refPrec(e) {
			x = "(" + x + ")"
		}
		// Right operand needs parens at equal precedence too, since
		// all operators here are left-associative.
		if refPrec(e.Y) <= refPrec(e) {
			y = "(" + y + ")"
		}
		return fmt.Sprintf("%s %s %s", x, e.Op, y)
	}
	return fmt.Sprintf("/* %T */", e)
}

// referenceCorpus is the differential tests' input: the testdata
// corpus plus structured and unstructured progen programs of sizes 20
// to 272.
func referenceCorpus(t testing.TB) map[string]*lang.Program {
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
			cfg := progen.Config{Seed: seed, Stmts: size}
			progs[fmt.Sprintf("structured/%d/%d", size, seed)] = progen.Structured(cfg)
			progs[fmt.Sprintf("unstructured/%d/%d", size, seed)] = progen.Unstructured(cfg)
		}
	}
	return progs
}

// stmtExprs returns the expressions a statement evaluates directly.
func stmtExprs(s lang.Stmt) []lang.Expr {
	switch s := s.(type) {
	case *lang.AssignStmt:
		return []lang.Expr{s.Value}
	case *lang.WriteStmt:
		return []lang.Expr{s.Value}
	case *lang.ReturnStmt:
		return []lang.Expr{s.Value}
	case *lang.IfStmt:
		return []lang.Expr{s.Cond}
	case *lang.WhileStmt:
		return []lang.Expr{s.Cond}
	case *lang.SwitchStmt:
		return []lang.Expr{s.Tag}
	case *lang.CallStmt:
		return s.Args
	}
	return nil
}

// walkExpr visits e and every subexpression.
func walkExpr(e lang.Expr, fn func(lang.Expr)) {
	fn(e)
	switch e := e.(type) {
	case *lang.UnaryExpr:
		walkExpr(e.X, fn)
	case *lang.BinaryExpr:
		walkExpr(e.X, fn)
		walkExpr(e.Y, fn)
	case *lang.CallExpr:
		for _, a := range e.Args {
			walkExpr(a, fn)
		}
	}
}

// checkPrinterAgainstReference requires every printer entry point to
// produce the reference printer's bytes for p.
func checkPrinterAgainstReference(t *testing.T, name string, p *lang.Program) {
	t.Helper()
	for _, opts := range []lang.PrintOptions{{}, {LineNumbers: true}, {LineNumbers: true, Indent: "\t"}} {
		if got, want := lang.Format(p, opts), refFormat(p, opts); got != want {
			t.Fatalf("%s: Format(%+v) differs from the reference\ngot:\n%s\nwant:\n%s", name, opts, got, want)
		}
	}
	lang.WalkProgram(p, func(s lang.Stmt) {
		for _, opts := range []lang.PrintOptions{{}, {LineNumbers: true}} {
			if got, want := lang.FormatStmt(s, opts), refFormatStmt(s, opts); got != want {
				t.Fatalf("%s: FormatStmt(%+v) differs from the reference\ngot:  %q\nwant: %q", name, opts, got, want)
			}
		}
		if got, want := lang.StmtString(s), refStmtString(s); got != want {
			t.Fatalf("%s: StmtString = %q, reference %q", name, got, want)
		}
		for _, e := range stmtExprs(lang.Unlabel(s)) {
			walkExpr(e, func(e lang.Expr) {
				if got, want := lang.ExprString(e), refExprString(e); got != want {
					t.Fatalf("%s: ExprString = %q, reference %q", name, got, want)
				}
			})
		}
	})
}

func TestPrinterMatchesReference(t *testing.T) {
	for name, p := range referenceCorpus(t) {
		checkPrinterAgainstReference(t, name, p)
	}
}

// FuzzFormatReference holds the printer to the reference printer on
// every program the parser accepts.
func FuzzFormatReference(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/*.mc")
	for _, fn := range files {
		if data, err := os.ReadFile(fn); err == nil {
			f.Add(string(data))
		}
	}
	for _, s := range []string{
		"L1: L2: if (x) goto L1; else y = -(1 - 2) * 3;",
		"L: { x = 1; } M: N: while (!(a || b && c)) { if (x) break; }",
		"switch (x % 4) { case 1, 2: y = f(1, g(2)); break; default: return; }",
		"proc p(a, b) { a = b; return; }\ncall p(x, y + 1);",
		"if (a) { x = 1; } else if (b) x = 2; else { ; }",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := lang.Parse(src)
		if err != nil {
			return
		}
		checkPrinterAgainstReference(t, "fuzz", p)
	})
}
