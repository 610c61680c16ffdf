package clkernel

import "fmt"

// OpClass is one of the instruction classes used as static code features,
// plus OpOther for everything else (control flow, comparisons, work-item
// queries) which contributes only to the normalization total.
type OpClass int

// Instruction classes. The first ten are exactly the paper's feature
// components, in the order of its feature vector definition (Section 3.2).
const (
	OpIntAdd OpClass = iota
	OpIntMul
	OpIntDiv
	OpIntBitwise
	OpFloatAdd
	OpFloatMul
	OpFloatDiv
	OpSpecial
	OpGlobalAccess
	OpLocalAccess
	OpOther
	NumOpClasses
)

// NumFeatureClasses is the count of classes that are model features (all but
// OpOther).
const NumFeatureClasses = int(OpOther)

var opClassNames = [NumOpClasses]string{
	"int_add", "int_mul", "int_div", "int_bw",
	"float_add", "float_mul", "float_div", "sf",
	"gl_access", "loc_access", "other",
}

// String returns the instruction class's feature name.
func (c OpClass) String() string {
	if c < 0 || c >= NumOpClasses {
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
	return opClassNames[c]
}

// Counts holds instruction-class counts for one kernel, plus the memory
// traffic (in bytes) implied by the counted accesses. In static mode the
// counts are per-source-instruction; in weighted mode they estimate dynamic
// per-work-item executions.
type Counts struct {
	Ops         [NumOpClasses]float64
	GlobalBytes float64
	LocalBytes  float64
}

// Total returns the total instruction count (all classes including other).
func (c Counts) Total() float64 {
	t := 0.0
	for _, v := range c.Ops {
		t += v
	}
	return t
}

func (c *Counts) add(cl OpClass, w float64) { c.Ops[cl] += w }

func (c *Counts) merge(o Counts, w float64) {
	for i := range c.Ops {
		c.Ops[i] += o.Ops[i] * w
	}
	c.GlobalBytes += o.GlobalBytes * w
	c.LocalBytes += o.LocalBytes * w
}

// Mode selects how loops and branches are weighted during counting.
type Mode int

const (
	// Static counts each source instruction once, like an LLVM-IR static
	// pass: loop bodies and both branch arms are counted with weight 1.
	Static Mode = iota
	// Weighted multiplies loop bodies by their literal trip counts (or
	// DefaultTrip when the bound is symbolic) and branch arms by 1/2,
	// estimating the dynamic per-work-item instruction mix.
	Weighted
)

// DefaultTrip is the assumed trip count for loops whose bounds are not
// integer literals, in Weighted mode.
const DefaultTrip = 16.0

// Count runs the counting pass over a kernel (or helper) function. prog
// provides helper-function definitions so calls to them can be inlined; it
// may be nil when the function calls only builtins.
func Count(fn *Function, prog *Program, mode Mode) Counts {
	c := &counter{
		mode:    mode,
		prog:    prog,
		helpers: map[string]Counts{},
		inFly:   map[string]bool{},
	}
	return c.function(fn)
}

type counter struct {
	mode    Mode
	prog    *Program
	scopes  []map[string]Type
	helpers map[string]Counts // memoized helper-function counts
	inFly   map[string]bool   // recursion guard
}

func (c *counter) push() { c.scopes = append(c.scopes, map[string]Type{}) }
func (c *counter) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *counter) define(name string, t Type) {
	c.scopes[len(c.scopes)-1][name] = t
}

func (c *counter) lookup(name string) (Type, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	return Type{}, false
}

func (c *counter) function(fn *Function) Counts {
	c.push()
	defer c.pop()
	for _, p := range fn.Params {
		c.define(p.Name, p.Type)
	}
	var out Counts
	c.block(fn.Body, 1, &out)
	return out
}

func (c *counter) block(b *Block, w float64, out *Counts) {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		c.stmt(s, w, out)
	}
}

func (c *counter) stmt(s Stmt, w float64, out *Counts) {
	switch s := s.(type) {
	case *Block:
		c.block(s, w, out)
	case *BlockStmt:
		c.block(s.Block, w, out)
	case *DeclStmt:
		for _, dn := range s.Names {
			t := s.Type
			if dn.ArrLen != 0 {
				t.Pointer = true // arrays decay to pointers for access counting
			}
			c.define(dn.Name, t)
			if dn.Init != nil {
				c.expr(dn.Init, w, out)
			}
		}
	case *ExprStmt:
		c.expr(s.X, w, out)
	case *IfStmt:
		c.expr(s.Cond, w, out)
		bw := w
		if c.mode == Weighted {
			bw = w * 0.5
		}
		c.block(s.Then, bw, out)
		if s.Else != nil {
			c.block(s.Else, bw, out)
		}
	case *ForStmt:
		c.push()
		if s.Init != nil {
			c.stmt(s.Init, w, out)
		}
		trips := 1.0
		if c.mode == Weighted {
			trips = c.tripCount(s)
		}
		if s.Cond != nil {
			c.expr(s.Cond, w*trips, out)
		}
		if s.Post != nil {
			c.expr(s.Post, w*trips, out)
		}
		c.block(s.Body, w*trips, out)
		c.pop()
	case *WhileStmt:
		trips := 1.0
		if c.mode == Weighted {
			trips = DefaultTrip
		}
		c.expr(s.Cond, w*trips, out)
		c.block(s.Body, w*trips, out)
	case *ReturnStmt:
		if s.X != nil {
			c.expr(s.X, w, out)
		}
		out.add(OpOther, w)
	case *BreakStmt, *ContinueStmt:
		out.add(OpOther, w)
	}
}

// tripCount extracts a literal trip count from the canonical loop form
// `for (i = a; i < N; i += s)`; symbolic bounds yield DefaultTrip.
func (c *counter) tripCount(f *ForStmt) float64 {
	start, okStart := 0.0, false
	var iv string
	switch init := f.Init.(type) {
	case *DeclStmt:
		if len(init.Names) == 1 && init.Names[0].Init != nil {
			if v, ok := literalValue(init.Names[0].Init); ok {
				start, okStart = v, true
				iv = init.Names[0].Name
			}
		}
	case *ExprStmt:
		if b, ok := init.X.(*Binary); ok && b.Op == "=" {
			if id, ok := b.L.(*Ident); ok {
				if v, ok := literalValue(b.R); ok {
					start, okStart = v, true
					iv = id.Name
				}
			}
		}
	}
	if !okStart || f.Cond == nil {
		return DefaultTrip
	}
	cond, ok := f.Cond.(*Binary)
	if !ok {
		return DefaultTrip
	}
	var bound float64
	var cmpOp string
	if id, isID := cond.L.(*Ident); isID && id.Name == iv {
		v, okV := literalValue(cond.R)
		if !okV {
			return DefaultTrip
		}
		bound, cmpOp = v, cond.Op
	} else if id, isID := cond.R.(*Ident); isID && id.Name == iv {
		v, okV := literalValue(cond.L)
		if !okV {
			return DefaultTrip
		}
		bound = v
		cmpOp = flipCmp(cond.Op)
	} else {
		return DefaultTrip
	}
	step := stepOf(f.Post, iv)
	if step == 0 {
		return DefaultTrip
	}
	var n float64
	switch cmpOp {
	case "<":
		n = (bound - start) / step
	case "<=":
		n = (bound-start)/step + 1
	case ">":
		n = (start - bound) / -step
	case ">=":
		n = (start-bound)/-step + 1
	default:
		return DefaultTrip
	}
	if n < 0 {
		return 0
	}
	// Round up: partially-executed final iterations still execute.
	if n != float64(int64(n)) {
		n = float64(int64(n)) + 1
	}
	return n
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

// stepOf extracts the per-iteration step of induction variable iv from the
// loop post expression; 0 means unknown.
func stepOf(post Expr, iv string) float64 {
	switch p := post.(type) {
	case *Unary:
		if id, ok := p.X.(*Ident); ok && id.Name == iv {
			if p.Op == "++" {
				return 1
			}
			if p.Op == "--" {
				return -1
			}
		}
	case *Postfix:
		if id, ok := p.X.(*Ident); ok && id.Name == iv {
			if p.Op == "++" {
				return 1
			}
			if p.Op == "--" {
				return -1
			}
		}
	case *Binary:
		id, ok := p.L.(*Ident)
		if !ok || id.Name != iv {
			return 0
		}
		switch p.Op {
		case "+=":
			if v, ok := literalValue(p.R); ok {
				return v
			}
		case "-=":
			if v, ok := literalValue(p.R); ok {
				return -v
			}
		case "=":
			// i = i + c  or  i = i - c
			if b, ok := p.R.(*Binary); ok {
				if lid, ok := b.L.(*Ident); ok && lid.Name == iv {
					if cv, ok := literalValue(b.R); ok {
						if b.Op == "+" {
							return cv
						}
						if b.Op == "-" {
							return -cv
						}
					}
				}
			}
		}
	}
	return 0
}

func literalValue(e Expr) (float64, bool) {
	switch e := e.(type) {
	case *IntLit:
		return float64(e.Val), true
	case *FloatLit:
		return e.Val, true
	case *Unary:
		if e.Op == "-" {
			if v, ok := literalValue(e.X); ok {
				return -v, true
			}
		}
	}
	return 0, false
}

// sizeofBase maps scalar base types to their size in bytes.
func sizeofBase(base string) float64 {
	switch base {
	case "char", "uchar", "bool":
		return 1
	case "short", "ushort", "half":
		return 2
	case "long", "ulong", "double":
		return 8
	default: // int, uint, float, size_t (32-bit device model)
		return 4
	}
}

// expr counts the operations in e with weight w and returns e's type.
func (c *counter) expr(e Expr, w float64, out *Counts) Type {
	switch e := e.(type) {
	case *IntLit:
		return Type{Base: "int", Width: 1}
	case *FloatLit:
		return Type{Base: "float", Width: 1}
	case *Ident:
		if t, ok := c.lookup(e.Name); ok {
			return t
		}
		return Type{Base: "int", Width: 1} // unknown names: enum-like constants
	case *Member:
		t := c.expr(e.X, w, out)
		// Vector component access is free; sub-vector swizzles keep base.
		lanes := len(e.Sel)
		if lanes == 0 || lanes > t.Lanes() {
			lanes = 1
		}
		return Type{Base: t.Base, Width: lanes}
	case *Cast:
		from := c.expr(e.X, w, out)
		if from.IsFloat() != e.To.IsFloat() && !e.To.Pointer {
			out.add(OpOther, w) // int<->float conversion instruction
		}
		return e.To
	case *Ternary:
		c.expr(e.Cond, w, out)
		a := c.expr(e.Then, w, out)
		b := c.expr(e.Else, w, out)
		out.add(OpOther, w) // select
		return promote(a, b)
	case *Unary:
		return c.unary(e, w, out)
	case *Postfix:
		t := c.expr(e.X, w, out)
		c.addArith(t, "+", w, out)
		return t
	case *Index:
		return c.index(e, w, out, 1)
	case *Binary:
		return c.binary(e, w, out)
	case *Call:
		return c.call(e, w, out)
	}
	return Type{Base: "int", Width: 1}
}

func (c *counter) unary(e *Unary, w float64, out *Counts) Type {
	switch e.Op {
	case "*":
		t := c.expr(e.X, w, out)
		// Dereference: a memory access in the pointee's address space.
		c.access(t, w, 1, out)
		t.Pointer = false
		return t
	case "&":
		t := c.expr(e.X, w, out)
		t.Pointer = true
		return t
	case "-":
		t := c.expr(e.X, w, out)
		c.addArith(t, "+", w, out) // negation costs one add-class op
		return t
	case "~":
		t := c.expr(e.X, w, out)
		out.add(OpIntBitwise, w*float64(t.Lanes()))
		return t
	case "!":
		c.expr(e.X, w, out)
		out.add(OpOther, w)
		return Type{Base: "int", Width: 1}
	case "++", "--":
		t := c.expr(e.X, w, out)
		c.addArith(t, "+", w, out)
		return t
	}
	return c.expr(e.X, w, out)
}

// index counts a subscript access. accesses is the number of memory
// operations the subscript represents (1 for a load or a store, 2 for a
// compound-assignment load+store).
func (c *counter) index(e *Index, w float64, out *Counts, accesses float64) Type {
	base := c.expr(e.X, w, out)
	c.expr(e.I, w, out)
	elem := Type{Base: base.Base, Width: base.Lanes(), Space: base.Space}
	c.access(base, w*accesses, 1, out)
	return elem
}

// access records a memory access against the address space of t (a pointer
// or array type). n is the access count multiplier.
func (c *counter) access(t Type, w, n float64, out *Counts) {
	bytes := sizeofBase(t.Base) * float64(t.Lanes()) * w * n
	switch t.Space {
	case Global, Constant:
		out.add(OpGlobalAccess, w*n)
		out.GlobalBytes += bytes
	case Local:
		out.add(OpLocalAccess, w*n)
		out.LocalBytes += bytes
	default:
		// Private arrays live in registers/local memory of the work-item:
		// count as other (moves), no device-memory traffic.
		out.add(OpOther, w*n)
	}
}

// addArith counts an arithmetic op of the given symbol against the class
// implied by t, scaled by vector width.
func (c *counter) addArith(t Type, op string, w float64, out *Counts) {
	lanes := float64(t.Lanes())
	if t.IsFloat() {
		switch op {
		case "+", "-":
			out.add(OpFloatAdd, w*lanes)
		case "*":
			out.add(OpFloatMul, w*lanes)
		case "/", "%":
			out.add(OpFloatDiv, w*lanes)
		}
		return
	}
	switch op {
	case "+", "-":
		out.add(OpIntAdd, w*lanes)
	case "*":
		out.add(OpIntMul, w*lanes)
	case "/", "%":
		out.add(OpIntDiv, w*lanes)
	case "<<", ">>", "&", "|", "^":
		out.add(OpIntBitwise, w*lanes)
	}
}

var cmpOps = map[string]bool{"==": true, "!=": true, "<": true, ">": true, "<=": true, ">=": true}

func (c *counter) binary(e *Binary, w float64, out *Counts) Type {
	if assignOps[e.Op] {
		return c.assign(e, w, out)
	}
	lt := c.expr(e.L, w, out)
	rt := c.expr(e.R, w, out)
	t := promote(lt, rt)
	switch {
	case cmpOps[e.Op]:
		out.add(OpOther, w*float64(t.Lanes()))
		return Type{Base: "int", Width: t.Lanes()}
	case e.Op == "&&" || e.Op == "||":
		out.add(OpOther, w)
		return Type{Base: "int", Width: 1}
	case e.Op == "<<" || e.Op == ">>" || e.Op == "&" || e.Op == "|" || e.Op == "^":
		out.add(OpIntBitwise, w*float64(t.Lanes()))
		return t
	default:
		c.addArith(t, e.Op, w, out)
		return t
	}
}

// assign handles "=" and compound assignments, counting stores to memory
// lvalues and the implied read-modify-write of compound forms.
func (c *counter) assign(e *Binary, w float64, out *Counts) Type {
	compound := e.Op != "="
	var lt Type
	switch l := e.L.(type) {
	case *Index:
		acc := 1.0
		if compound {
			acc = 2.0 // load + store
		}
		lt = c.index(l, w, out, acc)
	case *Unary:
		if l.Op == "*" {
			pt := c.expr(l.X, w, out)
			acc := 1.0
			if compound {
				acc = 2.0
			}
			c.access(pt, w, acc, out)
			pt.Pointer = false
			lt = pt
		} else {
			lt = c.expr(e.L, w, out)
		}
	case *Member:
		lt = c.expr(l, w, out)
	case *Ident:
		if t, ok := c.lookup(l.Name); ok {
			lt = t
		} else {
			lt = Type{Base: "int", Width: 1}
		}
	default:
		lt = c.expr(e.L, w, out)
	}
	c.expr(e.R, w, out)
	if compound {
		op := e.Op[:len(e.Op)-1] // "+=" -> "+"
		c.addArith(lt, op, w, out)
	}
	return lt
}

func promote(a, b Type) Type {
	t := a
	if b.IsFloat() && !a.IsFloat() {
		t = b
	}
	if b.Lanes() > t.Lanes() {
		t.Width = b.Lanes()
	}
	if b.Base == "double" {
		t.Base = "double"
	}
	return t
}
