package clkernel

import (
	"fmt"
	"strconv"
)

// Parse lexes and parses an OpenCL C subset translation unit.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseProgram()
}

// MustParse is Parse that panics on error; for fixed embedded sources.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// maxDepth bounds the parser's recursion, so that deeply nested source
// fails with ErrTooDeep instead of overflowing the goroutine stack, which
// no recover can catch. Every recursion passes through parseStmt,
// parseAssign, parseTernary or parseUnary, and each open call of the four
// is one level: a nested statement or block adds one, a parenthesized
// expression three. The deepest of the 106 training and 12 benchmark
// kernels reaches 17.
const maxDepth = 1000

// ErrTooDeep is the parse error for source nested past the depth limit.
var ErrTooDeep = fmt.Errorf("clkernel: nesting deeper than %d levels", maxDepth)

type parser struct {
	toks  []Token
	pos   int
	depth int
}

// enter counts one level of nesting; the caller defers p.leave.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return ErrTooDeep
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) peek() Token { return p.toks[minIdx(p.pos+1, len(p.toks)-1)] }

func minIdx(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(text string) error {
	if p.cur().Text != text {
		return p.errf("expected %q, found %s", text, p.cur())
	}
	p.advance()
	return nil
}

func (p *parser) accept(text string) bool {
	if p.cur().Text == text {
		p.advance()
		return true
	}
	return false
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != TokEOF {
		fn, err := p.parseFunction()
		if err != nil {
			return nil, err
		}
		if fn.IsKernel {
			prog.Kernels = append(prog.Kernels, fn)
		} else {
			prog.Helpers = append(prog.Helpers, fn)
		}
	}
	if len(prog.Kernels) == 0 {
		return nil, &SyntaxError{Line: 1, Col: 1, Msg: "no __kernel function found"}
	}
	return prog, nil
}

func (p *parser) parseFunction() (*Function, error) {
	fn := &Function{}
	if p.cur().Text == "__kernel" || p.cur().Text == "kernel" {
		fn.IsKernel = true
		p.advance()
	}
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	fn.Return = ret
	if p.cur().Kind != TokIdent {
		return nil, p.errf("expected function name, found %s", p.cur())
	}
	fn.Name = p.advance().Text
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for !p.accept(")") {
		if len(fn.Params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		if p.cur().Text == "void" && p.peek().Text == ")" {
			p.advance()
			continue
		}
		prm, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, prm)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// parseQualifiers consumes address-space/const qualifiers and returns the
// address space (Private if none given).
func (p *parser) parseQualifiers() AddrSpace {
	space := Private
	for {
		switch p.cur().Text {
		case "__global", "global":
			space = Global
		case "__local", "local":
			space = Local
		case "__constant", "constant":
			space = Constant
		case "__private", "private", "const", "restrict", "volatile":
			// no effect on counting
		default:
			return space
		}
		p.advance()
	}
}

// parseType parses qualifiers, a type name, and optional '*'.
func (p *parser) parseType() (Type, error) {
	space := p.parseQualifiers()
	t := p.cur()
	name := t.Text
	if name == "unsigned" {
		p.advance()
		switch p.cur().Text {
		case "int", "char", "short", "long":
			name = "u" + p.cur().Text
			p.advance()
		default:
			name = "uint"
		}
	} else {
		if t.Kind != TokKeyword && !isTypeName(t.Text) {
			return Type{}, p.errf("expected type name, found %s", t)
		}
		if !isTypeName(name) {
			return Type{}, p.errf("%q is not a type", name)
		}
		p.advance()
	}
	base, width := splitVector(name)
	typ := Type{Base: base, Width: width, Space: space}
	// Re-check trailing qualifiers (e.g. "__global float * restrict p").
	for p.cur().Text == "*" || p.cur().Text == "const" || p.cur().Text == "restrict" {
		if p.cur().Text == "*" {
			typ.Pointer = true
		}
		p.advance()
	}
	return typ, nil
}

func (p *parser) parseParam() (Param, error) {
	typ, err := p.parseType()
	if err != nil {
		return Param{}, err
	}
	if p.cur().Kind != TokIdent {
		return Param{}, p.errf("expected parameter name, found %s", p.cur())
	}
	name := p.advance().Text
	return Param{Name: name, Type: typ}, nil
}

func (p *parser) parseBlock() (*Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.accept("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

// startsType reports whether the current token begins a declaration.
func (p *parser) startsType() bool {
	t := p.cur()
	switch t.Text {
	case "__global", "global", "__local", "local", "__constant", "constant",
		"__private", "private", "const", "unsigned":
		return true
	}
	return (t.Kind == TokKeyword || t.Kind == TokIdent) && isTypeName(t.Text)
}

func (p *parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.cur().Text {
	case "{":
		b, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &BlockStmt{Block: b}, nil
	case "if":
		return p.parseIf()
	case "for":
		return p.parseFor()
	case "while":
		return p.parseWhile()
	case "do":
		return p.parseDoWhile()
	case "return":
		p.advance()
		var x Expr
		if p.cur().Text != ";" {
			var err error
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x}, nil
	case "break":
		p.advance()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{}, nil
	case "continue":
		p.advance()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{}, nil
	case ";":
		p.advance()
		return &BlockStmt{Block: &Block{}}, nil
	}
	if p.startsType() {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return d, nil
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &ExprStmt{X: x}, nil
}

func (p *parser) parseDecl() (*DeclStmt, error) {
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Type: typ}
	for {
		if p.cur().Kind != TokIdent {
			return nil, p.errf("expected declarator name, found %s", p.cur())
		}
		dn := DeclName{Name: p.advance().Text}
		if p.accept("[") {
			if p.cur().Kind == TokIntLit {
				n, _ := strconv.ParseInt(trimIntSuffix(p.cur().Text), 0, 64)
				dn.ArrLen = int(n)
				p.advance()
			} else if p.cur().Kind == TokIdent {
				// symbolic length: record as unknown (-1)
				dn.ArrLen = -1
				p.advance()
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		if p.accept("=") {
			init, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			dn.Init = init
		}
		d.Names = append(d.Names, dn)
		if !p.accept(",") {
			return d, nil
		}
	}
}

func (p *parser) parseIf() (Stmt, error) {
	p.advance() // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Then: then}
	if p.accept("else") {
		els, err := p.parseStmtAsBlock()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

// parseStmtAsBlock parses a statement, wrapping single statements in a Block
// so that downstream passes only handle blocks.
func (p *parser) parseStmtAsBlock() (*Block, error) {
	if p.cur().Text == "{" {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &Block{Stmts: []Stmt{s}}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	p.advance() // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	f := &ForStmt{}
	if !p.accept(";") {
		if p.startsType() {
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			f.Init = d
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Init = &ExprStmt{X: x}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Cond = c
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if p.cur().Text != ")" {
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Post = x
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	p.advance() // while
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body}, nil
}

func (p *parser) parseDoWhile() (Stmt, error) {
	p.advance() // do
	body, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	if err := p.expect("while"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Do: true}, nil
}

// Expression parsing: precedence climbing.

// parseExpr parses a full expression including comma-free assignment.
func (p *parser) parseExpr() (Expr, error) { return p.parseAssign() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) parseAssign() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokPunct && assignOps[p.cur().Text] {
		op := p.advance().Text
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: lhs, R: rhs}, nil
	}
	return lhs, nil
}

func (p *parser) parseTernary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return cond, nil
	}
	then, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Ternary{Cond: cond, Then: then, Else: els}, nil
}

// binary operator precedence (higher binds tighter).
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec, ok := binPrec[t.Text]
		if t.Kind != TokPunct || !ok || prec < minPrec {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: t.Text, L: lhs, R: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "+", "!", "~", "*", "&":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, nil
			}
			return &Unary{Op: t.Text, X: x}, nil
		case "++", "--":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Text, X: x}, nil
		case "(":
			// Either a cast "(type)expr" or a parenthesized expression.
			if p.isCastAhead() {
				p.advance() // (
				typ, err := p.parseType()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &Cast{To: typ, X: x}, nil
			}
		}
	}
	return p.parsePostfix()
}

// isCastAhead peeks whether the '(' at the cursor starts a cast.
func (p *parser) isCastAhead() bool {
	if p.cur().Text != "(" {
		return false
	}
	nxt := p.toks[minIdx(p.pos+1, len(p.toks)-1)]
	switch nxt.Text {
	case "__global", "global", "__local", "local", "__constant", "constant", "const", "unsigned":
		return true
	}
	return (nxt.Kind == TokKeyword || nxt.Kind == TokIdent) && isTypeName(nxt.Text)
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Text {
		case "[":
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &Index{X: x, I: idx}
		case ".":
			p.advance()
			if p.cur().Kind != TokIdent {
				return nil, p.errf("expected member name, found %s", p.cur())
			}
			x = &Member{X: x, Sel: p.advance().Text}
		case "++", "--":
			op := p.advance().Text
			x = &Postfix{Op: op, X: x}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokIntLit:
		p.advance()
		v, err := strconv.ParseInt(trimIntSuffix(t.Text), 0, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", t.Text)
		}
		return &IntLit{Text: t.Text, Val: v}, nil
	case TokFloatLit:
		p.advance()
		v, err := strconv.ParseFloat(trimFloatSuffix(t.Text), 64)
		if err != nil {
			return nil, p.errf("bad float literal %q", t.Text)
		}
		return &FloatLit{Text: t.Text, Val: v}, nil
	case TokIdent:
		name := p.advance().Text
		if p.cur().Text == "(" {
			p.advance()
			call := &Call{Fun: name}
			for !p.accept(")") {
				if len(call.Args) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			return call, nil
		}
		return &Ident{Name: name}, nil
	case TokPunct:
		if t.Text == "(" {
			p.advance()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, p.errf("unexpected token %s in expression", t)
}

func trimIntSuffix(s string) string {
	for len(s) > 0 {
		c := s[len(s)-1]
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			s = s[:len(s)-1]
			continue
		}
		break
	}
	return s
}

func trimFloatSuffix(s string) string {
	for len(s) > 0 {
		c := s[len(s)-1]
		if c == 'f' || c == 'F' || c == 'l' || c == 'L' {
			s = s[:len(s)-1]
			continue
		}
		break
	}
	return s
}
