package extract

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/cnf"
	"repro/internal/logic"
)

// complementary is the expression-level form of the paper's test f == ¬g:
// exhaustive truth tables over the union support when it is small, BDDs
// otherwise. It is the differential oracle for packedTester.
func complementary(f, g *logic.Expr) bool {
	union := map[int]bool{}
	for _, id := range f.Support() {
		union[id] = true
	}
	for _, id := range g.Support() {
		union[id] = true
	}
	if len(union) <= 14 {
		return logic.Complementary(f, g)
	}
	m := bdd.New()
	return m.Complementary(m.FromExpr(f), m.FromExpr(g))
}

// definingClauses returns clauses encoding v = h for a random function h
// over vars (one clause per truth-table row), so the window resolves
// before any perturbation.
func definingClauses(r *rand.Rand, v int, vars []int) []cnf.Clause {
	var cs []cnf.Clause
	for row := 0; row < 1<<len(vars); row++ {
		c := cnf.Clause{cnf.Lit(v)}
		if r.Intn(2) == 0 {
			c[0] = -c[0]
		}
		for i, w := range vars {
			l := cnf.Lit(w)
			if row&(1<<i) != 0 {
				l = -l
			}
			c = append(c, l)
		}
		cs = append(cs, c)
	}
	return cs
}

// randomWindow draws the clauses containing v = 1 for one differential
// trial: a defining clause set (resolvable) or random clauses, then
// perturbations — dropped or extra clauses, tautological clauses,
// duplicate literals, clauses of v alone, and sides over disjoint
// variables.
func randomWindow(r *rand.Rand) []cnf.Clause {
	const v = 1
	n := 1 + r.Intn(12)
	vars := r.Perm(20)[:n]
	for i := range vars {
		vars[i] += 2
	}
	lit := func(w int) cnf.Lit {
		if r.Intn(2) == 0 {
			return cnf.Lit(-w)
		}
		return cnf.Lit(w)
	}
	var cs []cnf.Clause
	switch r.Intn(3) {
	case 0:
		cs = definingClauses(r, v, vars[:min(n, 5+r.Intn(4))])
	case 1: // disjoint sides: ¬v-clauses over one half, v-clauses over the other
		h := (n + 1) / 2
		for k := r.Intn(4); k >= 0; k-- {
			cs = append(cs, cnf.Clause{-v, lit(vars[r.Intn(h)])})
		}
		for k := r.Intn(4); k >= 0; k-- {
			cs = append(cs, cnf.Clause{v, lit(vars[h+r.Intn(n-h+1)-1])})
		}
	default:
		for k := 1 + r.Intn(6); k > 0; k-- {
			c := cnf.Clause{lit(v)}
			for j := r.Intn(4); j > 0; j-- {
				c = append(c, lit(vars[r.Intn(n)]))
			}
			cs = append(cs, c)
		}
	}
	for k := r.Intn(3); k > 0; k-- {
		switch w := vars[r.Intn(n)]; r.Intn(5) {
		case 0:
			if len(cs) > 1 {
				i := r.Intn(len(cs))
				cs = append(cs[:i], cs[i+1:]...)
			}
		case 1:
			cs = append(cs, cnf.Clause{lit(v), cnf.Lit(w), cnf.Lit(-w)})
		case 2:
			i := r.Intn(len(cs))
			cs[i] = append(cs[i].Clone(), cs[i][r.Intn(len(cs[i]))])
		case 3:
			cs = append(cs, cnf.Clause{lit(v)})
		case 4:
			cs = append(cs, cnf.Clause{v, -v, lit(w)})
		}
	}
	r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// TestPackedTestMatchesOracle: the packed resolution test must agree with
// the expression-level oracle on randomized windows, including
// tautological clauses, duplicate literals and disjoint sides, and must
// hand supports past packedMaxVars back untabulated.
func TestPackedTestMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	pt := newPackedTester(64)
	resolved := 0
	for trial := 0; trial < 3000; trial++ {
		cs := randomWindow(r)
		got, tabulated := pt.complementary(cs, 1)
		if !tabulated {
			t.Fatalf("trial %d: %d-clause window not tabulated", trial, len(cs))
		}
		f, g := deriveExpressions(cs, 1)
		if want := complementary(f, g); got != want {
			t.Fatalf("trial %d: packed %v, oracle %v on %v", trial, got, want, cs)
		}
		if got {
			resolved++
		}
	}
	if resolved < 300 {
		t.Errorf("only %d of 3000 trials resolved; the generator no longer covers the true case", resolved)
	}
	for _, w := range pt.slot {
		if w != -1 {
			t.Fatal("support slots not reset after a test")
		}
	}

	// One more support variable than the table bound: untabulated.
	wide := cnf.Clause{-1}
	for w := 2; w <= packedMaxVars+2; w++ {
		wide = append(wide, cnf.Lit(w))
	}
	if _, tabulated := pt.complementary([]cnf.Clause{wide, {1, -2}}, 1); tabulated {
		t.Errorf("support of %d variables was tabulated", packedMaxVars+1)
	}
}

// TestTransformWideUnionSupport: each side's support fits a truth table
// but their union does not (14 + 14 variables); Algorithm 1 must decide the
// resolution on the union instead of panicking, and the circuit must
// accept exactly the CNF's models.
func TestTransformWideUnionSupport(t *testing.T) {
	f := mustParse(t, "p cnf 29 2\n-1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 0\n1 16 17 18 19 20 21 22 23 24 25 26 27 28 29 0\n")
	res, err := Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(29))
	in := make([]bool, len(res.Circuit.Inputs))
	for trial := 0; trial < 2000; trial++ {
		for i := range in {
			in[i] = r.Intn(4) == 0
		}
		assign := res.AssignmentFromInputs(f.NumVars, in)
		if got, want := res.Circuit.OutputsSatisfied(in), f.Sat(assign); got != want {
			t.Fatalf("inputs %v: circuit accepts=%v, CNF satisfied=%v", in, got, want)
		}
	}
}
