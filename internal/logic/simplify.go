package logic

import (
	"maps"
	"math/bits"
	"slices"
	"sort"
)

// Restrict returns e with variable id fixed to value, with constant folding
// applied bottom-up (a Shannon cofactor).
func Restrict(e *Expr, id int, value bool) *Expr {
	switch e.Op {
	case OpConst:
		return e
	case OpVar:
		if e.Var == id {
			return Const(value)
		}
		return e
	case OpNot:
		return Not(Restrict(e.Args[0], id, value))
	case OpAnd, OpOr, OpXor:
		args := make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = Restrict(a, id, value)
		}
		switch e.Op {
		case OpAnd:
			return And(args...)
		case OpOr:
			return Or(args...)
		default:
			return Xor(args...)
		}
	}
	panic("logic: invalid op in Restrict")
}

// Substitute returns e with every occurrence of variable id replaced by sub.
func Substitute(e *Expr, id int, sub *Expr) *Expr {
	switch e.Op {
	case OpConst:
		return e
	case OpVar:
		if e.Var == id {
			return sub
		}
		return e
	case OpNot:
		return Not(Substitute(e.Args[0], id, sub))
	case OpAnd, OpOr, OpXor:
		args := make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = Substitute(a, id, sub)
		}
		switch e.Op {
		case OpAnd:
			return And(args...)
		case OpOr:
			return Or(args...)
		default:
			return Xor(args...)
		}
	}
	panic("logic: invalid op in Substitute")
}

// maxTTVars bounds the support size for truth-table based procedures.
// 2^20 rows ≈ 1M evaluations, still fast for the clause windows Algorithm 1
// inspects (a handful of variables).
const maxTTVars = 20

// TruthTable returns the truth table of e over its sorted support and the
// support itself. It panics if the support exceeds maxTTVars variables.
func TruthTable(e *Expr) (table []bool, support []int) {
	support = e.Support()
	return truthTableOn(e, support), support
}

func truthTableOn(e *Expr, support []int) []bool {
	if len(support) > maxTTVars {
		panic("logic: support too large for truth table")
	}
	rows := 1 << len(support)
	table := make([]bool, rows)
	idx := make(map[int]int, len(support))
	for i, id := range support {
		idx[id] = i
	}
	for r := 0; r < rows; r++ {
		table[r] = e.Eval(func(id int) bool {
			i, ok := idx[id]
			if !ok {
				return false
			}
			return r&(1<<i) != 0
		})
	}
	return table
}

// Equivalent reports whether a and b compute the same function, decided by
// exhaustive evaluation over the union of their supports. Intended for the
// small supports that arise in clause-window analysis.
func Equivalent(a, b *Expr) bool {
	support := unionSupport(a, b)
	ta := truthTableOn(a, support)
	tb := truthTableOn(b, support)
	for i := range ta {
		if ta[i] != tb[i] {
			return false
		}
	}
	return true
}

// Complementary reports whether a == ¬b as Boolean functions.
func Complementary(a, b *Expr) bool {
	support := unionSupport(a, b)
	ta := truthTableOn(a, support)
	tb := truthTableOn(b, support)
	for i := range ta {
		if ta[i] == tb[i] {
			return false
		}
	}
	return true
}

func unionSupport(a, b *Expr) []int {
	set := map[int]struct{}{}
	for _, id := range a.Support() {
		set[id] = struct{}{}
	}
	for _, id := range b.Support() {
		set[id] = struct{}{}
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Simplify returns a semantically equal expression that is no larger than e,
// obtained by constructor-level folding plus, for small supports, a
// Quine–McCluskey-style two-level minimization with factoring of the
// dominant literal. Large-support expressions are returned after
// constructor folding only.
func Simplify(e *Expr) *Expr {
	e = rebuild(e)
	support := e.Support()
	if len(support) == 0 || len(support) > 12 {
		return e
	}
	table := truthTableOn(e, support)
	min := minimizeSOP(table, support)
	if min.Size() < e.Size() {
		return min
	}
	return e
}

// rebuild reconstructs e through the folding constructors so nested
// redundancies introduced by callers collapse.
func rebuild(e *Expr) *Expr {
	switch e.Op {
	case OpConst, OpVar:
		return e
	case OpNot:
		return Not(rebuild(e.Args[0]))
	case OpAnd, OpOr, OpXor:
		args := make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = rebuild(a)
		}
		switch e.Op {
		case OpAnd:
			return And(args...)
		case OpOr:
			return Or(args...)
		default:
			return Xor(args...)
		}
	}
	panic("logic: invalid op in rebuild")
}

// cube is a product term over the support: position i is a don't-care
// when bit i of care is clear, and otherwise takes bit i of val (1 =
// positive literal, 0 = negated). val is zero outside care.
type cube struct{ care, val uint32 }

func (c cube) covers(row int) bool { return uint32(row)&c.care == c.val }

// code is the cube's base-3 number over n positions, position 0 most
// significant, digit 0 = negated, 1 = positive, 2 = don't-care. Its
// numeric order is the lexicographic order of the digit strings, which
// fixes the order primes are generated and covered in.
func (c cube) code(n int) int {
	k := 0
	for i := 0; i < n; i++ {
		d := 2
		if c.care&(1<<i) != 0 {
			d = int(c.val >> i & 1)
		}
		k = 3*k + d
	}
	return k
}

// minimizeSOP produces a minimal-ish sum-of-products for the function given
// by table over support, then converts it back to an Expr. It implements
// the Quine–McCluskey prime generation followed by a greedy cover.
func minimizeSOP(table []bool, support []int) *Expr {
	n := len(support)
	var minterms []int
	for r, v := range table {
		if v {
			minterms = append(minterms, r)
		}
	}
	if len(minterms) == 0 {
		return False()
	}
	if len(minterms) == len(table) {
		return True()
	}

	// Seed cubes are the minterms themselves.
	all := uint32(1)<<n - 1
	current := map[int]cube{}
	for _, m := range minterms {
		c := cube{care: all, val: uint32(m)}
		current[c.code(n)] = c
	}

	var primes []cube
	for len(current) > 0 {
		merged := map[int]bool{}
		next := map[int]cube{}
		keys := slices.Sorted(maps.Keys(current))
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				a, b := current[keys[i]], current[keys[j]]
				if d := mergeDistance(a, b); d >= 0 {
					c := cube{care: a.care &^ (1 << d), val: a.val &^ (1 << d)}
					next[c.code(n)] = c
					merged[keys[i]] = true
					merged[keys[j]] = true
				}
			}
		}
		for _, k := range keys {
			if !merged[k] {
				primes = append(primes, current[k])
			}
		}
		current = next
	}

	// Greedy cover of minterms by primes (essential primes first).
	chosen := greedyCover(minterms, primes)

	terms := make([]*Expr, 0, len(chosen))
	for _, c := range chosen {
		var lits []*Expr
		for i := 0; i < n; i++ {
			if c.care&(1<<i) != 0 {
				lits = append(lits, Lit(support[i], c.val&(1<<i) != 0))
			}
		}
		terms = append(terms, And(lits...))
	}
	return Or(terms...)
}

// mergeDistance returns the single position where a and b differ in a
// mergeable way (both specified, opposite), or -1.
func mergeDistance(a, b cube) int {
	if a.care != b.care {
		return -1
	}
	d := a.val ^ b.val
	if d == 0 || d&(d-1) != 0 {
		return -1
	}
	return bits.TrailingZeros32(d)
}

func greedyCover(minterms []int, primes []cube) []cube {
	uncovered := append([]int(nil), minterms...)
	var chosen []cube
	for len(uncovered) > 0 {
		best, bestCount := -1, 0
		for i, p := range primes {
			count := 0
			for _, m := range uncovered {
				if p.covers(m) {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = i, count
			}
		}
		if best < 0 {
			break // cannot happen for a consistent table; defensive
		}
		chosen = append(chosen, primes[best])
		uncovered = slices.DeleteFunc(uncovered, primes[best].covers)
	}
	return chosen
}
