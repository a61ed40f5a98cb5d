package extract

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/logic"
)

func TestMatchBufInv(t *testing.T) {
	// (¬1 ∨ 2)(1 ∨ ¬2): candidate 1 → x1 = x2.
	buf := []cnf.Clause{{-1, 2}, {1, -2}}
	e, ok := matchBufInv(buf, 1)
	if !ok || logic.Key(e) != logic.Key(logic.V(2)) {
		t.Errorf("buffer: got %v, %v", e, ok)
	}
	// (¬1 ∨ ¬2)(1 ∨ 2): x1 = ¬x2.
	inv := []cnf.Clause{{-1, -2}, {1, 2}}
	e, ok = matchBufInv(inv, 1)
	if !ok || logic.Key(e) != logic.Key(logic.Not(logic.V(2))) {
		t.Errorf("inverter: got %v, %v", e, ok)
	}
	// Same polarity of v twice: no match.
	if _, ok := matchBufInv([]cnf.Clause{{1, 2}, {1, -2}}, 1); ok {
		t.Error("bad pair matched")
	}
}

func TestMatchAndOrGroups(t *testing.T) {
	// OR: f=4, inputs 1,2,3 → (¬4 ∨ 1 ∨ 2 ∨ 3)(4 ∨ ¬1)(4 ∨ ¬2)(4 ∨ ¬3).
	or := []cnf.Clause{{-4, 1, 2, 3}, {4, -1}, {4, -2}, {4, -3}}
	e, ok := matchAndOr(or, 4)
	if !ok || !logic.Equivalent(e, logic.Or(logic.V(1), logic.V(2), logic.V(3))) {
		t.Errorf("OR group: got %v, %v", e, ok)
	}
	// AND: f=4 → (4 ∨ ¬1 ∨ ¬2 ∨ ¬3)(¬4 ∨ 1)(¬4 ∨ 2)(¬4 ∨ 3).
	and := []cnf.Clause{{4, -1, -2, -3}, {-4, 1}, {-4, 2}, {-4, 3}}
	e, ok = matchAndOr(and, 4)
	if !ok || !logic.Equivalent(e, logic.And(logic.V(1), logic.V(2), logic.V(3))) {
		t.Errorf("AND group: got %v, %v", e, ok)
	}
	// OR with a negated input literal: f = ¬1 ∨ 2.
	orn := []cnf.Clause{{-4, -1, 2}, {4, 1}, {4, -2}}
	e, ok = matchAndOr(orn, 4)
	if !ok || !logic.Equivalent(e, logic.Or(logic.Not(logic.V(1)), logic.V(2))) {
		t.Errorf("OR with negated literal: got %v, %v", e, ok)
	}
	// Wrong binary polarity: no match.
	bad := []cnf.Clause{{-4, 1, 2}, {4, 1}, {4, -2}}
	if _, ok := matchAndOr(bad, 4); ok {
		t.Error("corrupted group matched")
	}
}

func TestMatchXor2(t *testing.T) {
	// v=3 = x1 ⊕ x2 (Eq. 4 signature).
	xor := []cnf.Clause{{-3, 1, 2}, {-3, -1, -2}, {3, -1, 2}, {3, 1, -2}}
	e, ok := matchXor2(xor, 3)
	if !ok || !logic.Equivalent(e, logic.Xor(logic.V(1), logic.V(2))) {
		t.Errorf("XOR: got %v, %v", e, ok)
	}
	// v=3 = XNOR(x1,x2).
	xnor := []cnf.Clause{{3, 1, 2}, {3, -1, -2}, {-3, -1, 2}, {-3, 1, -2}}
	e, ok = matchXor2(xnor, 3)
	if !ok || !logic.Equivalent(e, logic.Xnor(logic.V(1), logic.V(2))) {
		t.Errorf("XNOR: got %v, %v", e, ok)
	}
	// A clause set that is not a parity function: no match.
	notParity := []cnf.Clause{{-3, 1, 2}, {-3, -1, -2}, {3, -1, 2}, {3, 1, 2}}
	if _, ok := matchXor2(notParity, 3); ok {
		t.Error("non-parity clauses matched as XOR")
	}
}

func TestSignatureHitsOnTseitinInstances(t *testing.T) {
	// A Tseitin-encoded random circuit should resolve almost entirely
	// through the signature fast path.
	r := rand.New(rand.NewSource(4))
	c := randomCircuit(r, 6, 30)
	enc := c.Tseitin()
	res, err := Transform(enc.Formula)
	if err != nil {
		t.Fatal(err)
	}
	if res.SignatureHits == 0 {
		t.Error("no signature hits on a pure Tseitin instance")
	}
	if res.SignatureHits < res.Windows/2 {
		t.Errorf("signature hits %d out of %d windows — fast path barely firing",
			res.SignatureHits, res.Windows)
	}
}

// TestSignaturePathAgreesWithGenericPath: disabling the fast path (by
// testing the generic derivation directly on signature windows) must give
// semantically identical bindings.
func TestSignaturePathAgreesWithGenericPath(t *testing.T) {
	groups := [][]cnf.Clause{
		{{-4, 1, 2, 3}, {4, -1}, {4, -2}, {4, -3}},
		{{4, -1, -2, -3}, {-4, 1}, {-4, 2}, {-4, 3}},
		{{-3, 1, 2}, {-3, -1, -2}, {3, -1, 2}, {3, 1, -2}},
		{{-1, 2}, {1, -2}},
	}
	for gi, cs := range groups {
		// Output variable is the highest-numbered one by construction.
		v := 0
		for _, c := range cs {
			for _, l := range c {
				if l.Var() > v {
					v = l.Var()
				}
			}
		}
		sig, okSig := recognizeSignature(cs, v)
		if !okSig {
			t.Fatalf("group %d: signature not recognized", gi)
		}
		f, g := deriveExpressions(cs, v)
		if !complementary(f, g) {
			t.Fatalf("group %d: generic path did not resolve", gi)
		}
		if !logic.Equivalent(sig, f) {
			t.Errorf("group %d: signature %v != generic %v", gi, sig, f)
		}
	}
}

// TestRoundTripStillHoldsWithFastPath re-runs the bijection check (the
// fast path must not change extraction semantics).
func TestRoundTripStillHoldsWithFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	for trial := 0; trial < 25; trial++ {
		c := randomCircuit(r, 3+r.Intn(3), 5+r.Intn(8))
		enc := c.Tseitin()
		res, err := Transform(enc.Formula)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(res.Circuit.Inputs) > 14 {
			continue
		}
		checkBijection(t, enc.Formula, res)
	}
}
