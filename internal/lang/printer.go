package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// PrintOptions controls pretty-printing.
type PrintOptions struct {
	// LineNumbers prefixes each statement with its original source
	// line ("12: write(positives);"), reproducing the listings in the
	// paper's figures. Statements with line 0 (synthesized nodes) get
	// no prefix.
	LineNumbers bool
	// Indent is the indentation unit; default is four spaces.
	Indent string
}

// printer writes every line straight into one builder: statements and
// expressions are rendered by writeSimple/writeExpr recursion, never
// through intermediate strings.
type printer struct {
	opts  PrintOptions
	sb    strings.Builder
	depth int
}

// Format pretty-prints a whole program: procedure declarations first
// (in declaration order), then the main body. Procs-first is the
// canonical layout — re-parsing the output yields the same canonical
// form again even when the input interleaved declarations and
// statements.
func Format(p *Program, opts PrintOptions) string {
	pr := newPrinter(opts)
	for _, d := range p.Procs {
		pr.proc(d)
	}
	for _, s := range p.Body {
		pr.stmt(s)
	}
	return pr.sb.String()
}

// FormatStmt pretty-prints a single statement subtree.
func FormatStmt(s Stmt, opts PrintOptions) string {
	pr := newPrinter(opts)
	pr.stmt(s)
	return pr.sb.String()
}

func newPrinter(opts PrintOptions) *printer {
	if opts.Indent == "" {
		opts.Indent = "    "
	}
	return &printer{opts: opts}
}

// proc prints one procedure declaration with its body indented.
func (pr *printer) proc(d *ProcDecl) {
	sb := pr.begin(d.P)
	sb.WriteString("proc ")
	sb.WriteString(d.Name)
	sb.WriteByte('(')
	for i, prm := range d.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(prm)
	}
	sb.WriteString(") {\n")
	pr.depth++
	for _, s := range d.Body {
		pr.stmt(s)
	}
	pr.depth--
	pr.line(Pos{}, "}")
}

// begin starts an output line: the line-number column (when enabled)
// and the indentation. The caller writes the text and the newline.
func (pr *printer) begin(pos Pos) *strings.Builder {
	sb := &pr.sb
	if pr.opts.LineNumbers {
		if pos.Line > 0 {
			var buf [20]byte
			num := strconv.AppendInt(buf[:0], int64(pos.Line), 10)
			for i := len(num); i < 3; i++ {
				sb.WriteByte(' ')
			}
			sb.Write(num)
			sb.WriteString(": ")
		} else {
			sb.WriteString("     ")
		}
	}
	for i := 0; i < pr.depth; i++ {
		sb.WriteString(pr.opts.Indent)
	}
	return sb
}

// line writes one whole line of fixed text.
func (pr *printer) line(pos Pos, text string) {
	sb := pr.begin(pos)
	sb.WriteString(text)
	sb.WriteByte('\n')
}

// header writes a compound statement's header line, "kw (expr)"
// followed by open (" {" or nothing).
func (pr *printer) header(pos Pos, kw string, e Expr, open string) {
	sb := pr.begin(pos)
	writeHeader(sb, kw, e)
	sb.WriteString(open)
	sb.WriteByte('\n')
}

func (pr *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case nil:
	case *AssignStmt, *ReadStmt, *WriteStmt, *GotoStmt, *BreakStmt,
		*ContinueStmt, *ReturnStmt, *CallStmt, *EmptyStmt:
		sb := pr.begin(s.Pos())
		writeSimple(sb, s)
		sb.WriteByte('\n')
	case *LabeledStmt:
		// The label shares its statement's line in the paper's style
		// ("8: L8: positives = positives + 1;"), but nested labels and
		// labels on compound statements are clearer on their own line
		// only when the inner statement is compound.
		switch inner := Unlabel(s).(type) {
		case *AssignStmt, *ReadStmt, *WriteStmt, *GotoStmt, *BreakStmt,
			*ContinueStmt, *ReturnStmt, *CallStmt, *EmptyStmt:
			sb := pr.begin(s.P)
			writeLabels(sb, s)
			writeSimple(sb, inner)
			sb.WriteByte('\n')
		case *IfStmt:
			// Inline a labeled conditional jump:
			// "3: L3: if (eof()) goto L14;".
			if inner.Else == nil && IsJump(Unlabel(inner.Then)) {
				if _, wrapped := inner.Then.(*LabeledStmt); !wrapped {
					sb := pr.begin(s.P)
					writeLabels(sb, s)
					writeCondJump(sb, inner.Cond, inner.Then)
					sb.WriteByte('\n')
					return
				}
			}
			pr.labelLine(s)
			pr.stmt(inner)
		default:
			pr.labelLine(s)
			pr.stmt(inner)
		}
	case *BlockStmt:
		pr.line(s.P, "{")
		pr.depth++
		for _, st := range s.List {
			pr.stmt(st)
		}
		pr.depth--
		pr.line(Pos{}, "}")
	case *IfStmt:
		// The conditional-jump idiom prints on one line, matching the
		// paper's "3: L3: if (eof()) goto L14;" style.
		if s.Else == nil && s.Then != nil && IsJump(Unlabel(s.Then)) {
			if _, isLabeled := s.Then.(*LabeledStmt); !isLabeled {
				sb := pr.begin(s.P)
				writeCondJump(sb, s.Cond, s.Then)
				sb.WriteByte('\n')
				return
			}
		}
		pr.header(s.P, "if", s.Cond, braceOpen(s.Then))
		pr.body(s.Then)
		if s.Else != nil {
			sb := pr.begin(Pos{})
			sb.WriteString("else")
			sb.WriteString(braceOpen(s.Else))
			sb.WriteByte('\n')
			pr.body(s.Else)
		}
	case *WhileStmt:
		pr.header(s.P, "while", s.Cond, braceOpen(s.Body))
		pr.body(s.Body)
	case *SwitchStmt:
		pr.header(s.P, "switch", s.Tag, " {")
		for _, c := range s.Cases {
			if c.IsDefault {
				pr.line(c.P, "default:")
			} else {
				sb := pr.begin(c.P)
				sb.WriteString("case ")
				for i, v := range c.Values {
					if i > 0 {
						sb.WriteString(", ")
					}
					writeInt(sb, v)
				}
				sb.WriteString(":\n")
			}
			pr.depth++
			for _, st := range c.Body {
				pr.stmt(st)
			}
			pr.depth--
		}
		pr.line(Pos{}, "}")
	default:
		pr.line(s.Pos(), fmt.Sprintf("/* unknown statement %T */", s))
	}
}

// labelLine writes the labels of a labeled compound statement on a
// line of their own: "L8:".
func (pr *printer) labelLine(s *LabeledStmt) {
	sb := pr.begin(s.P)
	for l := s; ; {
		sb.WriteString(l.Label)
		sb.WriteByte(':')
		next, ok := l.Stmt.(*LabeledStmt)
		if !ok {
			break
		}
		sb.WriteByte(' ')
		l = next
	}
	sb.WriteByte('\n')
}

// body prints the body of an if/while arm: blocks inline their braces,
// other statements are indented one level.
func (pr *printer) body(s Stmt) {
	if blk, ok := s.(*BlockStmt); ok {
		pr.depth++
		for _, st := range blk.List {
			pr.stmt(st)
		}
		pr.depth--
		pr.line(Pos{}, "}")
		return
	}
	pr.depth++
	pr.stmt(s)
	pr.depth--
}

func braceOpen(s Stmt) string {
	if _, ok := s.(*BlockStmt); ok {
		return " {"
	}
	return ""
}

// writeLabels writes the (possibly nested) labels of s: "L8: ".
func writeLabels(sb *strings.Builder, s Stmt) {
	for {
		l, ok := s.(*LabeledStmt)
		if !ok {
			return
		}
		sb.WriteString(l.Label)
		sb.WriteString(": ")
		s = l.Stmt
	}
}

// writeCondJump writes the one-line conditional jump "if (c) goto L;".
func writeCondJump(sb *strings.Builder, cond Expr, jump Stmt) {
	sb.WriteString("if (")
	writeExpr(sb, cond)
	sb.WriteString(") ")
	writeSimple(sb, Unlabel(jump))
}

// writeSimple writes a simple (non-compound) statement without a
// trailing newline, for inlining after a label.
func writeSimple(sb *strings.Builder, s Stmt) {
	switch s := s.(type) {
	case *AssignStmt:
		sb.WriteString(s.Name)
		sb.WriteString(" = ")
		writeExpr(sb, s.Value)
		sb.WriteByte(';')
	case *ReadStmt:
		sb.WriteString("read(")
		sb.WriteString(s.Name)
		sb.WriteString(");")
	case *WriteStmt:
		sb.WriteString("write(")
		writeExpr(sb, s.Value)
		sb.WriteString(");")
	case *GotoStmt:
		sb.WriteString("goto ")
		sb.WriteString(s.Label)
		sb.WriteByte(';')
	case *BreakStmt:
		sb.WriteString("break;")
	case *ContinueStmt:
		sb.WriteString("continue;")
	case *ReturnStmt:
		if s.Value != nil {
			sb.WriteString("return ")
			writeExpr(sb, s.Value)
			sb.WriteByte(';')
		} else {
			sb.WriteString("return;")
		}
	case *CallStmt:
		sb.WriteString("call ")
		writeCall(sb, s.Name, s.Args)
		sb.WriteByte(';')
	case *EmptyStmt:
		sb.WriteByte(';')
	default:
		fmt.Fprintf(sb, "/* %T */", s)
	}
}

// StmtString renders a one-line summary of a statement: simple
// statements in full, compound statements as their header ("if (x <=
// 0)", "switch (c())"). Used by graph visualizations and diagnostics.
func StmtString(s Stmt) string {
	var sb strings.Builder
	switch s2 := Unlabel(s).(type) {
	case *IfStmt:
		writeHeader(&sb, "if", s2.Cond)
	case *WhileStmt:
		writeHeader(&sb, "while", s2.Cond)
	case *SwitchStmt:
		writeHeader(&sb, "switch", s2.Tag)
	case *BlockStmt:
		return "{...}"
	default:
		writeLabels(&sb, s)
		writeSimple(&sb, s2)
	}
	return sb.String()
}

// writeHeader writes a compound statement's summary, "kw (expr)".
func writeHeader(sb *strings.Builder, kw string, e Expr) {
	sb.WriteString(kw)
	sb.WriteString(" (")
	writeExpr(sb, e)
	sb.WriteByte(')')
}

// precedence levels for minimal parenthesization when printing.
func exprPrec(e Expr) int {
	switch e := e.(type) {
	case *BinaryExpr:
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
	case *UnaryExpr:
		return 6
	default:
		return 7
	}
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	if id, ok := e.(*Ident); ok {
		return id.Name
	}
	var sb strings.Builder
	writeExpr(&sb, e)
	return sb.String()
}

// writeExpr writes an expression with minimal parentheses.
func writeExpr(sb *strings.Builder, e Expr) {
	switch e := e.(type) {
	case nil:
	case *IntLit:
		writeInt(sb, e.Value)
	case *Ident:
		sb.WriteString(e.Name)
	case *CallExpr:
		writeCall(sb, e.Name, e.Args)
	case *UnaryExpr:
		sb.WriteString(e.Op)
		writeOperand(sb, e.X, exprPrec(e.X) < exprPrec(e))
	case *BinaryExpr:
		writeOperand(sb, e.X, exprPrec(e.X) < exprPrec(e))
		sb.WriteByte(' ')
		sb.WriteString(e.Op)
		sb.WriteByte(' ')
		// Right operand needs parens at equal precedence too, since
		// all operators here are left-associative.
		writeOperand(sb, e.Y, exprPrec(e.Y) <= exprPrec(e))
	default:
		fmt.Fprintf(sb, "/* %T */", e)
	}
}

func writeOperand(sb *strings.Builder, e Expr, paren bool) {
	if !paren {
		writeExpr(sb, e)
		return
	}
	sb.WriteByte('(')
	writeExpr(sb, e)
	sb.WriteByte(')')
}

// writeCall writes "name(arg, arg)".
func writeCall(sb *strings.Builder, name string, args []Expr) {
	sb.WriteString(name)
	sb.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeExpr(sb, a)
	}
	sb.WriteByte(')')
}

func writeInt(sb *strings.Builder, v int64) {
	var buf [20]byte
	sb.Write(strconv.AppendInt(buf[:0], v, 10))
}
