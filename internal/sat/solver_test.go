package sat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
)

func mustParse(t *testing.T, s string) *cnf.Formula {
	t.Helper()
	f, err := cnf.ParseDIMACSString(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSolveTrivial(t *testing.T) {
	f := mustParse(t, "p cnf 2 2\n1 0\n-1 2 0\n")
	s := NewSolver(f, Options{})
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v want SAT", got)
	}
	m := s.Model()
	if !m[0] || !m[1] {
		t.Errorf("model = %v want [true true]", m)
	}
	if !f.Sat(m) {
		t.Error("returned model does not satisfy formula")
	}
}

func TestSolveUnsat(t *testing.T) {
	f := mustParse(t, "p cnf 1 2\n1 0\n-1 0\n")
	if got := NewSolver(f, Options{}).Solve(); got != Unsat {
		t.Fatalf("Solve = %v want UNSAT", got)
	}
}

func TestSolveUnsatNontrivial(t *testing.T) {
	// Pigeonhole PHP(3,2): 3 pigeons, 2 holes — classic small unsat.
	f := cnf.New(6) // p_{i,j} = var 2i+j+1 for i in 0..2, j in 0..1
	v := func(i, j int) cnf.Lit { return cnf.Lit(2*i + j + 1) }
	for i := 0; i < 3; i++ {
		f.AddClause(v(i, 0), v(i, 1))
	}
	for j := 0; j < 2; j++ {
		for i1 := 0; i1 < 3; i1++ {
			for i2 := i1 + 1; i2 < 3; i2++ {
				f.AddClause(-v(i1, j), -v(i2, j))
			}
		}
	}
	if got := NewSolver(f, Options{}).Solve(); got != Unsat {
		t.Fatalf("PHP(3,2) = %v want UNSAT", got)
	}
}

func TestSolveEmptyFormula(t *testing.T) {
	f := cnf.New(3)
	s := NewSolver(f, Options{})
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty formula = %v want SAT", got)
	}
	if len(s.Model()) != 3 {
		t.Error("model has wrong arity")
	}
}

func TestSolveEmptyClause(t *testing.T) {
	f := cnf.New(1)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	if got := NewSolver(f, Options{}).Solve(); got != Unsat {
		t.Fatalf("empty clause = %v want UNSAT", got)
	}
}

func TestAddClauseIncremental(t *testing.T) {
	f := mustParse(t, "p cnf 2 1\n1 2 0\n")
	s := NewSolver(f, Options{})
	if s.Solve() != Sat {
		t.Fatal("base not SAT")
	}
	if !s.AddClause(-1) {
		t.Fatal("adding ¬x1 alone must not conflict")
	}
	// ¬x1 propagates x2 at level 0, so ¬x2 is a root-level conflict: AddClause
	// may report it immediately or Solve must return Unsat.
	okAdd := s.AddClause(-2)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after blocking = %v (add ok=%v) want UNSAT", got, okAdd)
	}
}

func TestCountModels(t *testing.T) {
	// x1 | x2 over 2 vars: 3 models.
	f := mustParse(t, "p cnf 2 1\n1 2 0\n")
	if got := CountModels(f, 0); got != 3 {
		t.Errorf("CountModels = %d want 3", got)
	}
	// XOR chain x1^x2 = 1 encoded as two clauses: 2 models.
	g := mustParse(t, "p cnf 2 2\n1 2 0\n-1 -2 0\n")
	if got := CountModels(g, 0); got != 2 {
		t.Errorf("CountModels(xor) = %d want 2", got)
	}
	if got := CountModels(f, 2); got != 2 {
		t.Errorf("CountModels limit = %d want 2", got)
	}
}

func TestEnumerateModelsDistinct(t *testing.T) {
	f := mustParse(t, "p cnf 3 1\n1 2 3 0\n")
	seen := map[[3]bool]bool{}
	n := EnumerateModels(f, 0, func(m []bool) bool {
		var k [3]bool
		copy(k[:], m)
		if seen[k] {
			t.Fatalf("duplicate model %v", m)
		}
		seen[k] = true
		if !f.Sat(m) {
			t.Fatalf("non-model %v", m)
		}
		return true
	})
	if n != 7 {
		t.Errorf("enumerated %d models want 7", n)
	}
}

func randomFormula(r *rand.Rand, nv, nc, maxLen int) *cnf.Formula {
	f := cnf.New(nv)
	for i := 0; i < nc; i++ {
		k := 1 + r.Intn(maxLen)
		c := make([]cnf.Lit, k)
		for j := range c {
			v := 1 + r.Intn(nv)
			if r.Intn(2) == 0 {
				c[j] = cnf.Lit(v)
			} else {
				c[j] = cnf.Lit(-v)
			}
		}
		f.AddClause(c...)
	}
	return f
}

// TestCDCLMatchesDPLL cross-checks verdicts on random 3-SAT near the
// phase-transition density.
func TestCDCLMatchesDPLL(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 150; i++ {
		nv := 4 + r.Intn(8)
		nc := int(4.2 * float64(nv))
		f := randomFormula(r, nv, nc, 3)
		want, _ := DPLL(f)
		s := NewSolver(f, Options{})
		got := s.Solve()
		if got != want {
			t.Fatalf("iteration %d: CDCL=%v DPLL=%v on\n%s", i, got, want, f.DIMACSString())
		}
		if got == Sat && !f.Sat(s.Model()) {
			t.Fatalf("iteration %d: CDCL model invalid", i)
		}
	}
}

// TestCDCLMatchesDPLLLongClauses exercises the watched-literal machinery
// with wider clauses.
func TestCDCLMatchesDPLLLongClauses(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 80; i++ {
		nv := 5 + r.Intn(6)
		f := randomFormula(r, nv, 3*nv, 6)
		want, _ := DPLL(f)
		s := NewSolver(f, Options{})
		if got := s.Solve(); got != want {
			t.Fatalf("iteration %d: CDCL=%v DPLL=%v", i, got, want)
		}
	}
}

func TestRandomPolarityStillCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		nv := 4 + r.Intn(6)
		f := randomFormula(r, nv, 4*nv, 3)
		want, _ := DPLL(f)
		s := NewSolver(f, Options{
			Rand:              rand.New(rand.NewSource(int64(i))),
			RandomPolarity:    true,
			RandomizeActivity: true,
		})
		if got := s.Solve(); got != want {
			t.Fatalf("iteration %d: randomized CDCL=%v DPLL=%v", i, got, want)
		}
		if want == Sat && !f.Sat(s.Model()) {
			t.Fatalf("iteration %d: randomized model invalid", i)
		}
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	// A hard pigeonhole instance with a tiny budget must return Unknown.
	n := 7
	f := cnf.New(n * (n - 1))
	v := func(i, j int) cnf.Lit { return cnf.Lit(i*(n-1) + j + 1) }
	for i := 0; i < n; i++ {
		c := make([]cnf.Lit, n-1)
		for j := 0; j < n-1; j++ {
			c[j] = v(i, j)
		}
		f.AddClause(c...)
	}
	for j := 0; j < n-1; j++ {
		for i1 := 0; i1 < n; i1++ {
			for i2 := i1 + 1; i2 < n; i2++ {
				f.AddClause(-v(i1, j), -v(i2, j))
			}
		}
	}
	s := NewSolver(f, Options{MaxConflicts: 5})
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budgeted solve = %v want UNKNOWN", got)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d want %d", i, got, w)
		}
	}
}

func TestVarHeapOrdering(t *testing.T) {
	act := []float64{0.5, 3.0, 1.0, 2.0}
	h := newVarHeap(act)
	for v := range act {
		h.push(v)
	}
	order := []int{}
	for {
		v, ok := h.pop()
		if !ok {
			break
		}
		order = append(order, v)
	}
	want := []int{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v want %v", order, want)
		}
	}
}

func TestVarHeapUpdate(t *testing.T) {
	act := []float64{1, 2, 3}
	h := newVarHeap(act)
	for v := range act {
		h.push(v)
	}
	act[0] = 10
	h.update(0)
	if v, _ := h.pop(); v != 0 {
		t.Errorf("after bump, pop = %d want 0", v)
	}
}

// Property: on random satisfiable instances, CDCL's model verifies.
func TestModelAlwaysVerifiesProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 3 + r.Intn(10)
		f := randomFormula(r, nv, 2*nv, 3)
		s := NewSolver(f, Options{})
		if s.Solve() == Sat {
			return f.Sat(s.Model())
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: blocking the found model strictly reduces the model count.
func TestBlockingClauseProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 3 + r.Intn(5)
		f := randomFormula(r, nv, nv, 3)
		total := CountModels(f, 0)
		if total == 0 {
			return true
		}
		// After blocking one model, exactly total-1 remain.
		s := NewSolver(f, Options{})
		if s.Solve() != Sat {
			return false
		}
		m := s.Model()
		g := f.Clone()
		block := make([]cnf.Lit, nv)
		for v := 1; v <= nv; v++ {
			if m[v-1] {
				block[v-1] = cnf.Lit(-v)
			} else {
				block[v-1] = cnf.Lit(v)
			}
		}
		g.AddClause(block...)
		return CountModels(g, 0) == total-1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
