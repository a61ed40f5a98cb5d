// Package sat implements Boolean satisfiability solvers: a CDCL solver with
// two-watched-literal propagation, first-UIP clause learning, VSIDS
// branching, phase saving and Luby restarts; and a textbook DPLL solver
// used as a cross-checking oracle in tests.
// The baseline samplers (UniGen3-like, CMSGen-like) and the solution
// verifiers are built on this package.
package sat

import (
	"math/rand"

	"repro/internal/cnf"
)

// Status is a solver verdict.
type Status int8

// Solver verdicts.
const (
	Unknown Status = iota // budget exhausted before a verdict
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

const (
	valUnassigned int8 = -1
	valFalse      int8 = 0
	valTrue       int8 = 1
)

type clause struct {
	lits   []cnf.Lit
	learnt bool
	act    float64
}

// Options configure a CDCL solver. The zero value gives deterministic
// default behaviour; the sampler baselines enable the randomization knobs.
type Options struct {
	// Rand supplies randomness for polarity/activity randomization. When
	// nil, a fixed-seed source is used.
	Rand *rand.Rand
	// RandomPolarity picks random phase for decisions instead of saved
	// phases (CMSGen-style sampling behaviour).
	RandomPolarity bool
	// RandomizeActivity perturbs initial VSIDS activities so different
	// solver runs explore different regions of the solution space.
	RandomizeActivity bool
	// MaxConflicts bounds the search; <= 0 means unbounded. When the bound
	// is hit, Solve returns Unknown.
	MaxConflicts int64
}

// Solver is a CDCL SAT solver over a fixed variable count. Clauses may be
// added incrementally between Solve calls (used for blocking clauses and
// XOR hash constraints by the samplers).
type Solver struct {
	numVars int
	clauses []*clause
	watches [][]*clause // indexed by encoded literal

	assign   []int8    // per var (0-based)
	level    []int     // decision level per var
	reason   []*clause // antecedent per var
	trail    []cnf.Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	polarity []bool // saved phases
	heap     *varHeap
	seen     []bool

	clauseInc  float64
	nConflicts int64
	nDecisions int64
	nProps     int64
	rng        *rand.Rand
	opts       Options
	unsat      bool // formula known unsat regardless of budget
	model      []bool

	// Learned-clause database management.
	nLearnts   int
	maxLearnts int

	// Native XOR-constraint engine (see xor.go).
	rawXors      []rawXor
	xorPrepared  bool
	xors         []*xorRow
	xorOcc       [][]int32
	xorProcessed []bool
}

// NewSolver builds a solver for formula f. The formula is copied; later
// changes to f do not affect the solver.
func NewSolver(f *cnf.Formula, opts Options) *Solver {
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	s := &Solver{
		numVars:      f.NumVars,
		watches:      make([][]*clause, 2*f.NumVars),
		assign:       make([]int8, f.NumVars),
		level:        make([]int, f.NumVars),
		reason:       make([]*clause, f.NumVars),
		activity:     make([]float64, f.NumVars),
		polarity:     make([]bool, f.NumVars),
		seen:         make([]bool, f.NumVars),
		varInc:       1,
		clauseInc:    1,
		rng:          rng,
		opts:         opts,
		xorProcessed: make([]bool, f.NumVars),
	}
	for i := range s.assign {
		s.assign[i] = valUnassigned
	}
	if opts.RandomizeActivity {
		for i := range s.activity {
			s.activity[i] = rng.Float64() * 0.001
		}
		for i := range s.polarity {
			s.polarity[i] = rng.Intn(2) == 0
		}
	}
	s.heap = newVarHeap(s.activity)
	for v := 0; v < s.numVars; v++ {
		s.heap.push(v)
	}
	for _, c := range f.Clauses {
		if !s.addClauseInternal(c) {
			s.unsat = true
			break
		}
	}
	return s
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return s.numVars }

// Stats returns (conflicts, decisions, propagations).
func (s *Solver) Stats() (conflicts, decisions, propagations int64) {
	return s.nConflicts, s.nDecisions, s.nProps
}

func litIdx(l cnf.Lit) int {
	v := l.Var() - 1
	if l.Positive() {
		return 2 * v
	}
	return 2*v + 1
}

func (s *Solver) litValue(l cnf.Lit) int8 {
	v := s.assign[l.Var()-1]
	if v == valUnassigned {
		return valUnassigned
	}
	if l.Positive() {
		return v
	}
	return 1 - v
}

// AddClause adds a clause between Solve calls. It returns false when the
// clause is empty after normalization (formula now unsat).
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	s.cancelUntil(0)
	c := make(cnf.Clause, len(lits))
	copy(c, lits)
	ok := s.addClauseInternal(c)
	if !ok {
		s.unsat = true
	}
	return ok
}

func (s *Solver) addClauseInternal(c cnf.Clause) bool {
	norm, taut := c.Normalize()
	if taut {
		return true
	}
	// Drop false literals / detect satisfied clause at level 0.
	lits := norm[:0]
	for _, l := range norm {
		switch s.litValue(l) {
		case valTrue:
			if s.levelOf(l) == 0 {
				return true // permanently satisfied
			}
			lits = append(lits, l)
		case valFalse:
			if s.levelOf(l) == 0 {
				continue // permanently false literal
			}
			lits = append(lits, l)
		default:
			lits = append(lits, l)
		}
	}
	switch len(lits) {
	case 0:
		return false
	case 1:
		if s.litValue(lits[0]) == valFalse {
			return false
		}
		if s.litValue(lits[0]) == valUnassigned {
			s.uncheckedEnqueue(lits[0], nil)
		}
		_, confl := s.propagate()
		return confl == nil
	}
	cl := &clause{lits: append([]cnf.Lit(nil), lits...)}
	s.clauses = append(s.clauses, cl)
	s.watch(cl)
	return true
}

func (s *Solver) levelOf(l cnf.Lit) int { return s.level[l.Var()-1] }

func (s *Solver) watch(c *clause) {
	// Watch the negations: when ¬lits[0] is assigned true (lits[0] false),
	// the clause must be inspected.
	w0 := litIdx(c.lits[0].Neg())
	w1 := litIdx(c.lits[1].Neg())
	s.watches[w0] = append(s.watches[w0], c)
	s.watches[w1] = append(s.watches[w1], c)
}

func (s *Solver) uncheckedEnqueue(l cnf.Lit, from *clause) {
	v := l.Var() - 1
	if l.Positive() {
		s.assign[v] = valTrue
	} else {
		s.assign[v] = valFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation from qhead. It returns the conflicting
// clause, or nil when propagation completes.
func (s *Solver) propagate() (propagated int, confl *clause) {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.nProps++
		wi := litIdx(l) // clauses watching ¬(assigned true lit l)... see watch()
		ws := s.watches[wi]
		out := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Ensure the falsified literal is lits[1].
			if c.lits[0].Neg() == l {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litValue(c.lits[0]) == valTrue {
				out = append(out, c)
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != valFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					ni := litIdx(c.lits[1].Neg())
					s.watches[ni] = append(s.watches[ni], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			out = append(out, c)
			if s.litValue(c.lits[0]) == valFalse {
				// Conflict: keep remaining watchers and bail.
				out = append(out, ws[i+1:]...)
				s.watches[wi] = out
				return propagated, c
			}
			s.uncheckedEnqueue(c.lits[0], c)
			propagated++
		}
		s.watches[wi] = out
		// Fold the assignment into the native XOR rows.
		if confl := s.xorAssign(l.Var() - 1); confl != nil {
			return propagated, confl
		}
	}
	return propagated, nil
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) (learnt []cnf.Lit, btLevel int) {
	learnt = append(learnt, 0) // placeholder for asserting literal
	counter := 0
	var p cnf.Lit
	idx := len(s.trail) - 1

	c := confl
	for {
		s.bumpClause(c)
		start := 0
		if p != 0 {
			start = 1 // skip the asserting literal itself on later rounds
		}
		for _, q := range c.lits[start:] {
			v := q.Var() - 1
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].Var()-1] {
			idx--
		}
		p = s.trail[idx]
		v := p.Var() - 1
		c = s.reason[v]
		s.seen[v] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.Neg()

	// Cheap clause minimization: drop literals implied by the rest via
	// their reason clauses (non-recursive check). Keep a copy so the seen
	// flags of removed literals are still cleared below.
	toClear := append([]cnf.Lit(nil), learnt...)
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var() - 1
		if s.reason[v] == nil || !s.redundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Backtrack level: second-highest level in the clause.
	btLevel = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.levelOf(learnt[i]) > s.levelOf(learnt[maxI]) {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.levelOf(learnt[1])
	}
	for _, l := range toClear {
		s.seen[l.Var()-1] = false
	}
	return learnt, btLevel
}

// redundant reports whether lit's reason clause is fully covered by seen
// variables (one-step self-subsumption).
func (s *Solver) redundant(l cnf.Lit) bool {
	c := s.reason[l.Var()-1]
	for _, q := range c.lits[1:] {
		v := q.Var() - 1
		if !s.seen[v] && s.level[v] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var() - 1
		s.xorUnassign(v)             // must run while assign[v] is still valid
		s.polarity[v] = l.Positive() // phase saving
		s.assign[v] = valUnassigned
		s.reason[v] = nil
		if !s.heap.contains(v) {
			s.heap.push(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.heap.pop()
		if !ok {
			return -1
		}
		if s.assign[v] == valUnassigned {
			return v
		}
	}
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.act += s.clauseInc
	if c.act > 1e20 {
		for _, cl := range s.clauses {
			if cl.learnt {
				cl.act *= 1e-20
			}
		}
		s.clauseInc *= 1e-20
	}
}

const (
	varDecay    = 1 / 0.95
	clauseDecay = 1 / 0.999
)

// luby returns the x-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << seq
}

// Solve runs the CDCL search. It returns Sat with a model retrievable via
// Model, Unsat, or Unknown when MaxConflicts was exhausted.
func (s *Solver) Solve() Status {
	if s.unsat {
		return Unsat
	}
	if !s.xorPrepared {
		if !s.prepareXors() {
			s.unsat = true
			return Unsat
		}
	}
	if _, confl := s.propagate(); confl != nil {
		s.unsat = true
		return Unsat
	}
	restart := int64(0)
	for {
		budget := 100 * luby(restart)
		restart++
		st := s.search(budget)
		if st != Unknown {
			return st
		}
		if s.opts.MaxConflicts > 0 && s.nConflicts >= s.opts.MaxConflicts {
			s.cancelUntil(0)
			return Unknown
		}
		s.maybeReduceDB()
	}
}

func (s *Solver) search(budget int64) Status {
	conflicts := int64(0)
	for {
		_, confl := s.propagate()
		if confl != nil {
			s.nConflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				cl := &clause{lits: learnt, learnt: true}
				s.clauses = append(s.clauses, cl)
				s.nLearnts++
				s.watch(cl)
				s.bumpClause(cl)
				s.uncheckedEnqueue(learnt[0], cl)
			}
			s.varInc *= varDecay
			s.clauseInc *= clauseDecay
			if s.opts.MaxConflicts > 0 && s.nConflicts >= s.opts.MaxConflicts {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}
		if conflicts >= budget {
			s.cancelUntil(0)
			return Unknown
		}
		v := s.pickBranchVar()
		if v < 0 {
			// All variables assigned: model found.
			s.model = make([]bool, s.numVars)
			for i := range s.model {
				s.model[i] = s.assign[i] == valTrue
			}
			s.cancelUntil(0)
			return Sat
		}
		s.nDecisions++
		pol := s.polarity[v]
		if s.opts.RandomPolarity {
			pol = s.rng.Intn(2) == 0
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		if pol {
			s.uncheckedEnqueue(cnf.Lit(v+1), nil)
		} else {
			s.uncheckedEnqueue(cnf.Lit(-(v + 1)), nil)
		}
	}
}

// Model returns the satisfying assignment found by the last Sat verdict
// (assign[v-1] = value of variable v). It returns nil before any Sat result.
func (s *Solver) Model() []bool {
	if s.model == nil {
		return nil
	}
	return append([]bool(nil), s.model...)
}
