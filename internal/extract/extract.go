// Package extract implements the paper's transformation algorithm
// (Algorithm 1): it converts a CNF — typically the Tseitin encoding of some
// multi-level circuit — back into an equisatisfiable multi-level,
// multi-output Boolean function, classifying every CNF variable as a primary
// input, an intermediate variable, or a primary output.
//
// The clause window scan follows the paper: clauses are read in order into
// a window; for each unclassified variable v in the window, the Boolean
// expression f for v is derived from the window clauses containing ¬v and
// the expression g for ¬v from those containing v; when f == ¬g the window
// encodes "v = f". Constant f makes v a primary output; otherwise v becomes
// an intermediate variable and the support of f joins the primary inputs.
//
// Two engineering refinements over the paper's pseudo-code (both strictly
// constraint-preserving, documented in DESIGN.md):
//
//  1. On resolution, only the clauses containing v are discarded. Those
//     clauses are exactly equivalent to v = f (given complementarity), so
//     unrelated clauses that happen to share the window are never dropped.
//  2. The under-specified fallback (window variables disjoint from all
//     later clauses) is triggered by an exact lookahead table, and the
//     window conjunction becomes an auxiliary output constrained to 1.
package extract

import (
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/logic"
)

// Binding records one recovered definition "Var = Expr".
type Binding struct {
	Var  int // CNF variable; 0 for auxiliary (fallback) outputs
	Expr *logic.Expr
}

// Result is the outcome of a transformation.
type Result struct {
	// Circuit is the extracted multi-level, multi-output function. Its
	// inputs are the primary-input CNF variables (in classification order)
	// and its outputs carry the constant constraints.
	Circuit *circuit.Circuit
	// PrimaryInputs, Intermediates, PrimaryOutputs list CNF variables by
	// classification, in discovery order.
	PrimaryInputs  []int
	Intermediates  []int
	PrimaryOutputs []int
	// Bindings lists the recovered expressions in recovery order.
	Bindings []Binding
	// NodeOf maps a CNF variable to its circuit node.
	NodeOf map[int]circuit.NodeID
	// OutputSources records, for each Circuit.Outputs entry (same order),
	// the indices of the original CNF clauses whose constraints produced
	// that output: the clauses consumed by a primary-output resolution, or
	// the whole window of a fallback. It is the provenance table behind
	// clause-weighted GD — per-clause weights aggregate onto the engine
	// outputs they constrain. Clauses consumed by intermediate resolutions
	// feed no output directly; their weights are absorbed structurally.
	OutputSources [][]int
	// TransformTime is the wall-clock cost of the transformation (the
	// paper's Fig. 4 right).
	TransformTime time.Duration
	// Windows counts resolved clause windows; Fallbacks counts windows
	// flushed through the under-specified path; SignatureHits counts
	// windows resolved by the Eq. 1–4 pattern-matching fast path rather
	// than the general derive-and-complement procedure.
	Windows       int
	Fallbacks     int
	SignatureHits int
}

// InputVars returns the primary-input CNF variables in circuit input order.
func (r *Result) InputVars() []int { return append([]int(nil), r.PrimaryInputs...) }

// GateHistogram counts the recovered circuit's nodes by gate type, keyed
// by the gate name (INPUT/CONST/BUF/NOT/AND/OR/…).
func (r *Result) GateHistogram() map[string]int {
	h := map[string]int{}
	for _, nd := range r.Circuit.Nodes {
		h[nd.Type.String()]++
	}
	return h
}

// ProjectionNodes maps projection variables to circuit nodes for the
// bit-parallel projected-signature path (bitblast.Eval.VerifyProject):
// out[k] is the node of vars[k], or -1 when the variable never received a
// node and defaults to false, matching AssignmentFromInputs.
func (r *Result) ProjectionNodes(vars []int) []int32 {
	out := make([]int32, len(vars))
	for i, v := range vars {
		if id, ok := r.NodeOf[v]; ok {
			out[i] = int32(id)
		} else {
			out[i] = -1
		}
	}
	return out
}

// AssignmentFromInputs evaluates the extracted circuit under the given
// primary-input values (in circuit input order) and returns a dense CNF
// assignment (assign[v-1] = value of CNF variable v) covering every
// variable that received a node. It is the scalar reference the packed
// paths are tested against: the bitblast verifier, and core's delivery,
// which expands solutions from a packed node sweep instead.
func (r *Result) AssignmentFromInputs(numVars int, inputs []bool) []bool {
	vals := r.Circuit.Eval(inputs)
	assign := make([]bool, numVars)
	for v, id := range r.NodeOf {
		assign[v-1] = vals[id]
	}
	return assign
}

// Verifier compiles a bit-parallel checker for this transformation: it
// reconstructs the full CNF assignment of 64 candidate primary-input rows
// per uint64 word sweep and reports which rows satisfy f — the packed
// analogue of AssignmentFromInputs + Formula.Sat, sharing the same
// nodeless-variables-default-false convention through NodeOf.
func (r *Result) Verifier(f *cnf.Formula) *bitblast.Program {
	return bitblast.New(r.Circuit, r.NodeOf, f)
}

// Transform runs Algorithm 1 on f.
func Transform(f *cnf.Formula) (*Result, error) {
	start := time.Now()
	// Lookahead: last clause index in which each variable occurs.
	maxVar := f.NumVars
	for _, c := range f.Clauses {
		for _, l := range c {
			maxVar = max(maxVar, l.Var())
		}
	}
	lastUse := make([]int, maxVar+1)
	for i, c := range f.Clauses {
		for _, l := range c {
			lastUse[l.Var()] = i
		}
	}
	t := &transformer{
		res: &Result{
			Circuit: circuit.NewCircuit(),
			NodeOf:  map[int]circuit.NodeID{},
		},
		classed: make([]bool, maxVar+1),
		clean:   make([]bool, maxVar+1),
		visited: make([]int, maxVar+1),
		pt:      newPackedTester(maxVar),
	}

	var window []cnf.Clause
	var winIdx []int // original clause index of each window clause (provenance)
	for i, c := range f.Clauses {
		if len(c) == 0 {
			return nil, fmt.Errorf("extract: clause %d is empty (formula unsatisfiable)", i)
		}
		window = append(window, c)
		winIdx = append(winIdx, i)
		t.touch(c)
		// Try resolutions until the window is stable.
		for {
			v, expr, ok := t.tryResolve(window)
			if !ok {
				break
			}
			window, winIdx = t.commit(window, winIdx, v, expr)
			t.res.Windows++
			if len(window) == 0 {
				break
			}
		}
		// Under-specified flush: no window variable occurs later.
		if len(window) > 0 {
			flush := true
			for _, wc := range window {
				for _, l := range wc {
					if lastUse[l.Var()] > i {
						flush = false
						break
					}
				}
				if !flush {
					break
				}
			}
			if flush {
				t.fallback(window, winIdx)
				window, winIdx = nil, nil
			}
		}
	}
	if len(window) > 0 {
		t.fallback(window, winIdx)
	}
	t.res.TransformTime = time.Since(start)
	return t.res, nil
}

type transformer struct {
	res     *Result
	classed []bool // variable has been classified
	// clean[v] records that v failed its last resolution test and no
	// clause containing v has entered or left the window since. Both
	// tests read only the window clauses containing v, so a clean v would
	// fail again and tryResolve skips it.
	clean   []bool
	visited []int // tryResolve pass that last visited each variable
	pass    int
	withV   []cnf.Clause // scratch: the window clauses containing v
	pt      *packedTester
}

// touch marks every variable of c dirty: c entered or left the window.
func (t *transformer) touch(c cnf.Clause) {
	for _, l := range c {
		t.clean[l.Var()] = false
	}
}

// nodeFor returns the circuit node for CNF variable v, creating a primary
// input node (and classifying v as PI) when it has none.
func (t *transformer) nodeFor(v int) circuit.NodeID {
	if id, ok := t.res.NodeOf[v]; ok {
		return id
	}
	id := t.res.Circuit.AddInput(fmt.Sprintf("x%d", v))
	t.res.Circuit.Nodes[id].Var = v
	t.res.NodeOf[v] = id
	t.classed[v] = true
	t.res.PrimaryInputs = append(t.res.PrimaryInputs, v)
	return id
}

// tryResolve scans the window's variables in order of first appearance and
// returns the first (v, f) with f == ¬g per the paper's test. Variables
// still clean from an earlier failed test are skipped: their test would
// read the same clauses.
func (t *transformer) tryResolve(window []cnf.Clause) (int, *logic.Expr, bool) {
	t.pass++
	for _, c := range window {
		for _, l := range c {
			v := l.Var()
			if t.visited[v] == t.pass || t.classed[v] || t.clean[v] {
				continue
			}
			t.visited[v] = t.pass
			withV := t.withV[:0]
			for _, wc := range window {
				if hasVar(wc, v) {
					withV = append(withV, wc)
				}
			}
			t.withV = withV
			// Fast path: Eq. 1–4 signature pattern matching. The matched
			// forms are already minimal, so they skip Simplify.
			if expr, ok := recognizeSignature(withV, v); ok {
				t.res.SignatureHits++
				return v, expr, true
			}
			if t.resolves(withV, v) {
				fExpr, _ := deriveExpressions(withV, v)
				return v, logic.Simplify(fExpr), true
			}
			t.clean[v] = true
		}
	}
	return 0, nil, false
}

// resolves decides the paper's test f == ¬g for v from withV, the window
// clauses containing v: on packed truth tables over their union support,
// or on BDDs when that support exceeds the table bound.
func (t *transformer) resolves(withV []cnf.Clause, v int) bool {
	if ok, tabulated := t.pt.complementary(withV, v); tabulated {
		return ok
	}
	fExpr, gExpr := deriveExpressions(withV, v)
	m := bdd.New()
	return m.Complementary(m.FromExpr(fExpr), m.FromExpr(gExpr))
}

// deriveExpressions builds the candidate expression for v (from clauses
// containing ¬v, each contributing the OR of its remaining literals) and
// for ¬v (from clauses containing v). A side with no clauses derives the
// constant true, which covers the unit-output case.
func deriveExpressions(window []cnf.Clause, v int) (fExpr, gExpr *logic.Expr) {
	var fTerms, gTerms []*logic.Expr
	for _, c := range window {
		hasPos, hasNeg := false, false
		for _, l := range c {
			if l.Var() == v {
				if l.Positive() {
					hasPos = true
				} else {
					hasNeg = true
				}
			}
		}
		if !hasPos && !hasNeg {
			continue
		}
		var lits []*logic.Expr
		for _, l := range c {
			if l.Var() != v {
				lits = append(lits, logic.Lit(l.Var(), l.Positive()))
			}
		}
		rest := logic.Or(lits...)
		if hasNeg {
			fTerms = append(fTerms, rest)
		}
		if hasPos {
			gTerms = append(gTerms, rest)
		}
	}
	return logic.And(fTerms...), logic.And(gTerms...)
}

// commit applies a successful resolution: record the binding, classify v,
// instantiate the expression as gates, and drop exactly the clauses
// containing v from the window. winIdx carries each window clause's
// original index; consumed clauses become the provenance of a constant
// (primary-output) resolution's circuit output.
func (t *transformer) commit(window []cnf.Clause, winIdx []int, v int, expr *logic.Expr) ([]cnf.Clause, []int) {
	t.res.Bindings = append(t.res.Bindings, Binding{Var: v, Expr: expr})

	// Partition first: clauses containing v are exactly the ones this
	// resolution consumes (in-place compaction is safe — the write index
	// never passes the read index).
	out := window[:0]
	outIdx := winIdx[:0]
	var consumed []int
	for k, c := range window {
		drop := false
		for _, l := range c {
			if l.Var() == v {
				drop = true
				break
			}
		}
		if drop {
			consumed = append(consumed, winIdx[k])
			t.touch(c)
		} else {
			out = append(out, c)
			outIdx = append(outIdx, winIdx[k])
		}
	}

	if val, isConst := expr.IsConst(); isConst {
		// v is a primary output constrained to the constant. If v already
		// has a node this adds the constraint to it; otherwise v becomes a
		// free input carrying the constraint directly.
		id := t.nodeForOutput(v)
		t.res.Circuit.MarkOutput(id, val)
		t.res.OutputSources = append(t.res.OutputSources, consumed)
		t.classed[v] = true
		t.res.PrimaryOutputs = append(t.res.PrimaryOutputs, v)
	} else {
		env := map[int]circuit.NodeID{}
		for _, sv := range expr.Support() {
			env[sv] = t.nodeFor(sv)
		}
		id := t.res.Circuit.InstantiateExpr(expr, env)
		t.res.Circuit.Nodes[id].Var = v
		t.res.NodeOf[v] = id
		t.classed[v] = true
		t.res.Intermediates = append(t.res.Intermediates, v)
	}
	return out, outIdx
}

// nodeForOutput returns v's node for an output constraint without forcing a
// PI classification for a fresh v.
func (t *transformer) nodeForOutput(v int) circuit.NodeID {
	if id, ok := t.res.NodeOf[v]; ok {
		return id
	}
	id := t.res.Circuit.AddInput(fmt.Sprintf("x%d", v))
	t.res.Circuit.Nodes[id].Var = v
	t.res.NodeOf[v] = id
	return id
}

// fallback converts an unresolvable window into an auxiliary output: the
// conjunction of its clauses, constrained to 1 (the paper's under-specified
// case, e.g. the trailing "10 0" unit clause in Fig. 1). The whole window
// is the output's clause provenance.
func (t *transformer) fallback(window []cnf.Clause, winIdx []int) {
	var terms []*logic.Expr
	for _, c := range window {
		var lits []*logic.Expr
		for _, l := range c {
			lits = append(lits, logic.Lit(l.Var(), l.Positive()))
		}
		terms = append(terms, logic.Or(lits...))
	}
	expr := logic.And(terms...)
	if len(expr.Support()) <= 12 {
		expr = logic.Simplify(expr)
	}
	t.res.Bindings = append(t.res.Bindings, Binding{Var: 0, Expr: expr})
	t.res.Fallbacks++
	srcs := append([]int(nil), winIdx...)

	if val, isConst := expr.IsConst(); isConst {
		if !val {
			// The window is unsatisfiable; represent it faithfully with a
			// constant-0 node constrained to 1 so downstream consumers see
			// an unsatisfiable function rather than a silent drop.
			id := t.res.Circuit.AddConst(false)
			t.res.Circuit.MarkOutput(id, true)
			t.res.OutputSources = append(t.res.OutputSources, srcs)
		}
		return
	}
	env := map[int]circuit.NodeID{}
	for _, sv := range expr.Support() {
		env[sv] = t.nodeFor(sv)
	}
	id := t.res.Circuit.InstantiateExpr(expr, env)
	t.res.Circuit.MarkOutput(id, true)
	t.res.OutputSources = append(t.res.OutputSources, srcs)
}
