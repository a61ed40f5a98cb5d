package logic

import (
	"math/rand"
	"testing"
)

// shuffled rebuilds e with every n-ary operand list permuted, bypassing
// the constructors, so Key-equal but differently ordered trees occur.
func shuffled(r *rand.Rand, e *Expr) *Expr {
	if len(e.Args) == 0 {
		return e
	}
	args := make([]*Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = shuffled(r, a)
	}
	r.Shuffle(len(args), func(i, j int) { args[i], args[j] = args[j], args[i] })
	return &Expr{Op: e.Op, Args: args}
}

// TestHashKeyAgreesWithKey: the constructors' string-free operand keys
// must decide exactly what Key strings decide — sameKey(a, b) iff
// Key(a) == Key(b), sameKeyNot(a, b) iff Key(a) == Key(Not(b)) — and
// Key-equal expressions must hash equally.
func TestHashKeyAgreesWithKey(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var pool []*Expr
	for len(pool) < 300 {
		e := randomExpr(r, 2, 3)
		pool = append(pool, e, shuffled(r, e))
	}
	equalPairs := 0
	for i, a := range pool {
		for _, b := range pool[i:] {
			same := Key(a) == Key(b)
			if got := sameKey(a, b); got != same {
				t.Fatalf("sameKey(%v, %v) = %v, Key equality %v", a, b, got, same)
			}
			if same {
				equalPairs++
				if hashKey(a) != hashKey(b) {
					t.Fatalf("Key-equal %v and %v hash differently", a, b)
				}
			}
			if b.Op == OpConst {
				continue
			}
			if got, want := sameKeyNot(a, b), Key(a) == Key(Not(b)); got != want {
				t.Fatalf("sameKeyNot(%v, %v) = %v, want %v", a, b, got, want)
			}
			if hashNotKey(b) != hashKey(Not(b)) {
				t.Fatalf("hashNotKey(%v) != hashKey(Not(%v))", b, b)
			}
		}
	}
	if equalPairs < len(pool) {
		t.Errorf("only %d Key-equal pairs; the pool no longer exercises equality", equalPairs)
	}
}

// TestCubeCodeOrder: minimizeSOP orders cubes by code; that order must be
// the lexicographic order of their digit strings (0 negated, 1 positive,
// 2 don't-care, position 0 first), which fixes prime order and the cover.
func TestCubeCodeOrder(t *testing.T) {
	const n = 4
	var cubes []cube
	var strs []string
	for care := uint32(0); care < 1<<n; care++ {
		for val := uint32(0); val < 1<<n; val++ {
			if val&^care != 0 {
				continue
			}
			c := cube{care, val}
			b := make([]byte, n)
			for i := range b {
				b[i] = '2'
				if care&(1<<i) != 0 {
					b[i] = '0' + byte(val>>i&1)
				}
			}
			cubes, strs = append(cubes, c), append(strs, string(b))
		}
	}
	for i := range cubes {
		for j := range cubes {
			if (cubes[i].code(n) < cubes[j].code(n)) != (strs[i] < strs[j]) {
				t.Fatalf("cube %s vs %s: code order disagrees with string order", strs[i], strs[j])
			}
		}
	}
}
