// Package logic implements a symbolic Boolean algebra: an expression AST
// with constructors that fold constants, a simplifier, normal forms, and
// evaluation. It is the stand-in for the SymPy layer the paper uses for
// "Boolean manipulations, such as simplification and complement checking".
//
// Variables are identified by positive integers so expressions can refer
// directly to DIMACS CNF variable numbers.
package logic

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Op enumerates the node kinds of a Boolean expression.
type Op uint8

// Expression node kinds.
const (
	OpConst Op = iota // boolean constant; Val holds the value
	OpVar             // variable reference; Var holds the (positive) id
	OpNot             // negation; Args[0] is the operand
	OpAnd             // n-ary conjunction over Args
	OpOr              // n-ary disjunction over Args
	OpXor             // n-ary exclusive or over Args
)

func (o Op) String() string {
	switch o {
	case OpConst:
		return "const"
	case OpVar:
		return "var"
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Expr is an immutable Boolean expression node. Shared subtrees are allowed;
// all operations treat Expr values as read-only.
type Expr struct {
	Op   Op
	Val  bool    // valid when Op == OpConst
	Var  int     // valid when Op == OpVar; always > 0
	Args []*Expr // operands for OpNot/OpAnd/OpOr/OpXor
}

var (
	trueExpr  = &Expr{Op: OpConst, Val: true}
	falseExpr = &Expr{Op: OpConst, Val: false}
)

// True returns the constant-true expression.
func True() *Expr { return trueExpr }

// False returns the constant-false expression.
func False() *Expr { return falseExpr }

// Const returns the constant expression for v.
func Const(v bool) *Expr {
	if v {
		return trueExpr
	}
	return falseExpr
}

// V returns a variable reference. id must be positive.
func V(id int) *Expr {
	if id <= 0 {
		panic(fmt.Sprintf("logic: variable id must be positive, got %d", id))
	}
	return &Expr{Op: OpVar, Var: id}
}

// Lit returns V(id) when positive is true and ¬V(id) otherwise.
func Lit(id int, positive bool) *Expr {
	if positive {
		return V(id)
	}
	return Not(V(id))
}

// Not returns the negation of e, folding constants and double negation.
func Not(e *Expr) *Expr {
	switch e.Op {
	case OpConst:
		return Const(!e.Val)
	case OpNot:
		return e.Args[0]
	}
	return &Expr{Op: OpNot, Args: []*Expr{e}}
}

// And returns the conjunction of es. Constants are folded, nested Ands are
// flattened, duplicate operands are merged, and complementary operands
// short-circuit to false. And() is true.
func And(es ...*Expr) *Expr { return nary(OpAnd, es) }

// Or returns the disjunction of es with the dual simplifications of And.
// Or() is false.
func Or(es ...*Expr) *Expr { return nary(OpOr, es) }

// Xor returns the exclusive-or of es. Constants fold into a parity flip,
// duplicate operands cancel pairwise, and Xor() is false.
func Xor(es ...*Expr) *Expr {
	flip := false
	var args []*Expr
	var flatten func(list []*Expr)
	flatten = func(list []*Expr) {
		for _, e := range list {
			switch e.Op {
			case OpConst:
				if e.Val {
					flip = !flip
				}
			case OpXor:
				flatten(e.Args)
			case OpNot:
				// ¬a ⊕ rest == a ⊕ rest ⊕ 1
				flip = !flip
				args = append(args, e.Args[0])
			default:
				args = append(args, e)
			}
		}
	}
	flatten(es)
	// Cancel identical pairs: a ⊕ a == 0. Sort by key for stable pairing.
	sort.SliceStable(args, func(i, j int) bool { return Key(args[i]) < Key(args[j]) })
	out := args[:0]
	for i := 0; i < len(args); {
		if i+1 < len(args) && Key(args[i]) == Key(args[i+1]) {
			i += 2
			continue
		}
		out = append(out, args[i])
		i++
	}
	var res *Expr
	switch len(out) {
	case 0:
		res = falseExpr
	case 1:
		res = out[0]
	default:
		res = &Expr{Op: OpXor, Args: append([]*Expr(nil), out...)}
	}
	if flip {
		return Not(res)
	}
	return res
}

// Xnor returns ¬Xor(es...).
func Xnor(es ...*Expr) *Expr { return Not(Xor(es...)) }

// Implies returns a → b.
func Implies(a, b *Expr) *Expr { return Or(Not(a), b) }

// Ite returns the if-then-else (c ∧ t) ∨ (¬c ∧ f).
func Ite(c, t, f *Expr) *Expr { return Or(And(c, t), And(Not(c), f)) }

func nary(op Op, es []*Expr) *Expr {
	unit := op == OpAnd // identity element value: true for AND, false for OR
	var args []*Expr
	// Operands are indexed by hashKey, so duplicates and complements are
	// found without building Key strings.
	seen := map[uint64][]int{}
	has := func(h uint64, match func(*Expr) bool) bool {
		for _, j := range seen[h] {
			if match(args[j]) {
				return true
			}
		}
		return false
	}
	short := false
	var flatten func(list []*Expr)
	flatten = func(list []*Expr) {
		for _, e := range list {
			if short {
				return
			}
			switch {
			case e.Op == OpConst:
				if e.Val != unit {
					short = true // dominating element
				}
			case e.Op == op:
				flatten(e.Args)
			default:
				h := hashKey(e)
				if has(h, func(x *Expr) bool { return sameKey(x, e) }) {
					continue
				}
				if has(hashNotKey(e), func(x *Expr) bool { return sameKeyNot(x, e) }) {
					short = true // a ∧ ¬a / a ∨ ¬a
					return
				}
				seen[h] = append(seen[h], len(args))
				args = append(args, e)
			}
		}
	}
	flatten(es)
	if short {
		return Const(!unit)
	}
	switch len(args) {
	case 0:
		return Const(unit)
	case 1:
		return args[0]
	}
	return &Expr{Op: op, Args: args}
}

// hashKey hashes e consistently with Key: expressions with equal Keys
// hash equally (n-ary operands combine commutatively, as Key sorts them).
func hashKey(e *Expr) uint64 {
	switch e.Op {
	case OpConst:
		if e.Val {
			return mix64(1)
		}
		return mix64(2)
	case OpVar:
		return mix64(uint64(e.Var)<<8 | 3)
	case OpNot:
		return notHash(hashKey(e.Args[0]))
	}
	h := uint64(e.Op) << 56
	for _, a := range e.Args {
		h += mix64(hashKey(a))
	}
	return mix64(h)
}

// hashNotKey is hashKey(Not(e)) without building Not(e); e is not a
// constant.
func hashNotKey(e *Expr) uint64 {
	if e.Op == OpNot {
		return hashKey(e.Args[0])
	}
	return notHash(hashKey(e))
}

func notHash(h uint64) uint64 { return mix64(h ^ 0x9e3779b97f4a7c15) }

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// sameKey reports Key(a) == Key(b): equal structure with n-ary operands
// compared as multisets.
func sameKey(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a.Op != b.Op || len(a.Args) != len(b.Args) {
		return false
	}
	switch a.Op {
	case OpConst:
		return a.Val == b.Val
	case OpVar:
		return a.Var == b.Var
	case OpNot:
		return sameKey(a.Args[0], b.Args[0])
	}
	used := make([]bool, len(b.Args))
	for _, x := range a.Args {
		found := false
		for j, y := range b.Args {
			if !used[j] && sameKey(x, y) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sameKeyNot reports Key(x) == Key(Not(e)) without building Not(e); e is
// not a constant.
func sameKeyNot(x, e *Expr) bool {
	if e.Op == OpNot {
		return sameKey(x, e.Args[0])
	}
	return x.Op == OpNot && sameKey(x.Args[0], e)
}

// Eval evaluates e under the assignment function value, which must return
// the value of every variable in the support of e.
func (e *Expr) Eval(value func(id int) bool) bool {
	switch e.Op {
	case OpConst:
		return e.Val
	case OpVar:
		return value(e.Var)
	case OpNot:
		return !e.Args[0].Eval(value)
	case OpAnd:
		for _, a := range e.Args {
			if !a.Eval(value) {
				return false
			}
		}
		return true
	case OpOr:
		for _, a := range e.Args {
			if a.Eval(value) {
				return true
			}
		}
		return false
	case OpXor:
		v := false
		for _, a := range e.Args {
			if a.Eval(value) {
				v = !v
			}
		}
		return v
	}
	panic("logic: invalid op in Eval")
}

// EvalMap evaluates e under a map assignment; absent variables are false.
func (e *Expr) EvalMap(m map[int]bool) bool {
	return e.Eval(func(id int) bool { return m[id] })
}

// Support returns the sorted set of variable ids occurring in e.
func (e *Expr) Support() []int {
	var ids []int
	e.walk(func(x *Expr) {
		if x.Op == OpVar {
			ids = append(ids, x.Var)
		}
	})
	slices.Sort(ids)
	return slices.Compact(ids)
}

func (e *Expr) walk(fn func(*Expr)) {
	fn(e)
	for _, a := range e.Args {
		a.walk(fn)
	}
}

// Size returns the number of nodes in the expression tree.
func (e *Expr) Size() int {
	n := 1
	for _, a := range e.Args {
		n += a.Size()
	}
	return n
}

// IsConst reports whether e is a boolean constant, returning its value.
func (e *Expr) IsConst() (value, ok bool) {
	if e.Op == OpConst {
		return e.Val, true
	}
	return false, false
}

// Key returns a canonical string key for structural comparison. Two
// expressions with equal keys are structurally identical up to the
// argument ordering normalization performed here.
func Key(e *Expr) string {
	var b strings.Builder
	writeKey(&b, e)
	return b.String()
}

func writeKey(b *strings.Builder, e *Expr) {
	switch e.Op {
	case OpConst:
		if e.Val {
			b.WriteString("T")
		} else {
			b.WriteString("F")
		}
	case OpVar:
		fmt.Fprintf(b, "v%d", e.Var)
	case OpNot:
		b.WriteString("!(")
		writeKey(b, e.Args[0])
		b.WriteString(")")
	default:
		keys := make([]string, len(e.Args))
		for i, a := range e.Args {
			keys[i] = Key(a)
		}
		sort.Strings(keys)
		switch e.Op {
		case OpAnd:
			b.WriteString("&(")
		case OpOr:
			b.WriteString("|(")
		case OpXor:
			b.WriteString("^(")
		}
		b.WriteString(strings.Join(keys, ","))
		b.WriteString(")")
	}
}

// String renders e in a human-readable infix form.
func (e *Expr) String() string {
	switch e.Op {
	case OpConst:
		if e.Val {
			return "1"
		}
		return "0"
	case OpVar:
		return fmt.Sprintf("x%d", e.Var)
	case OpNot:
		return "!" + parens(e.Args[0])
	case OpAnd:
		return joinArgs(e.Args, " & ")
	case OpOr:
		return joinArgs(e.Args, " | ")
	case OpXor:
		return joinArgs(e.Args, " ^ ")
	}
	return "?"
}

func parens(e *Expr) string {
	if e.Op == OpVar || e.Op == OpConst || e.Op == OpNot {
		return e.String()
	}
	return "(" + e.String() + ")"
}

func joinArgs(args []*Expr, sep string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = parens(a)
	}
	return strings.Join(parts, sep)
}
