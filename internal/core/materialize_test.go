package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/tensor"
)

// AssignmentFromInputs is the scalar delivery oracle: it expands a
// primary-input row by a per-row Circuit.Eval of the extraction circuit
// plus a NodeOf map range, with nodeless variables false unless an
// assumption pins them. Delivery (FullAssignmentAt) must agree with it
// lane by lane.
func (p *Problem) AssignmentFromInputs(sol []bool) []bool {
	assign := p.ext.AssignmentFromInputs(p.formula.NumVars, sol)
	for _, l := range p.assume {
		if _, ok := p.ext.NodeOf[l.Var()]; !ok {
			assign[l.Var()-1] = l.Positive()
		}
	}
	return assign
}

// matFormula is the paper example (derived variables through several
// gate levels) plus two independent 3-literal clauses (1568 models in
// all) and four variables no clause mentions — nodeless, so they exercise
// the var→node table's constant entries.
var matFormula = paperExample[len("p cnf 14 21\n"):]

func matProblem(t *testing.T) *Problem {
	t.Helper()
	return mustCompile(t, mustFormula(t, "p cnf 24 23\n"+matFormula+"15 16 17 0\n18 19 20 0\n"))
}

// checkLane compares delivery of pool solution i against the oracle.
func checkLane(t *testing.T, s *Sampler, i int) {
	t.Helper()
	got := s.FullAssignmentAt(i)
	want := s.prob.AssignmentFromInputs(s.sols[i])
	if len(got) != len(want) {
		t.Fatalf("solution %d: %d variables, oracle %d", i, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("solution %d: variable %d is %v, oracle %v", i, v+1, got[v], want[v])
		}
	}
}

// TestMaterializeGroupBoundaries is the batched materializer's differential
// against the scalar oracle on arbitrary primary-input rows, at pool sizes
// straddling the word (64) and group (256) boundaries, for sequential,
// reverse and strided reads, and across a tick that reuses the Eval
// between reads of one group.
func TestMaterializeGroupBoundaries(t *testing.T) {
	p := matProblem(t)
	r := rand.New(rand.NewSource(5))
	for _, count := range []int{1, 63, 64, 65, 255, 256, 257} {
		fresh := func() *Sampler {
			s, err := p.NewSampler(Config{BatchSize: 64, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < count; k++ {
				row := make([]bool, p.NumInputs())
				for i := range row {
					row[i] = r.Intn(2) == 0
				}
				s.sols = append(s.sols, row)
			}
			return s
		}
		s := fresh()
		for i := 0; i < count; i++ {
			checkLane(t, s, i)
		}
		s = fresh()
		for i := count - 1; i >= 0; i-- {
			checkLane(t, s, i)
		}
		s = fresh()
		for i := 0; i < count; i += 37 {
			checkLane(t, s, i)
		}
		// A tick between two reads of one group overwrites the Eval's node
		// values; the later words must be re-swept, not read stale.
		s = fresh()
		checkLane(t, s, 0)
		s.ContinuousStep(0)
		for i := 1; i < s.UniqueCount(); i++ {
			checkLane(t, s, i)
		}
	}
}

// deliverAll mimics a streaming consumer (Session.flush): tick, then deliver
// every solution the tick added, comparing each against the oracle.
func deliverAll(t *testing.T, s *Sampler, target int) {
	t.Helper()
	f := s.prob.formula
	deadline := time.Now().Add(20 * time.Second)
	delivered := 0
	for s.UniqueCount() < target && !s.Exhausted() && time.Now().Before(deadline) {
		s.ContinuousStep(target)
		for ; delivered < s.UniqueCount(); delivered++ {
			checkLane(t, s, delivered)
			if !f.Sat(s.FullAssignmentAt(delivered)) {
				t.Fatalf("solution %d does not satisfy the CNF", delivered)
			}
		}
	}
	if delivered < target {
		t.Fatalf("delivered %d of %d solutions", delivered, target)
	}
}

// TestMaterializeSessions runs the differential over every way a session
// comes to exist: fresh, projected, specialized under nodeless positive and
// negative pins plus a primary-input pin, over a GDSP-decoded problem, and
// restored from a snapshot.
func TestMaterializeSessions(t *testing.T) {
	p := matProblem(t)
	for _, v := range []int{21, 22, 23, 24} {
		if _, ok := p.ext.NodeOf[v]; ok {
			t.Fatalf("variable %d has a node; the test needs it nodeless", v)
		}
	}
	spec, err := Specialize(p, append(pinFromModel(t, p, 1), 21, -22, 23))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *Problem
		cfg  Config
	}{
		{"plain", p, Config{}},
		{"projected", p, Config{Projection: []int{1, 15, 16, 18, 21}}},
		{"specialized", spec, Config{}},
		{"decoded", problemRoundTrip(t, p), Config{}},
		{"decoded-specialized", problemRoundTrip(t, spec), Config{}},
		{"parallel", p, Config{Device: tensor.ParallelN(3)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.BatchSize, cfg.Seed = 512, 11
			s, err := c.p.NewSampler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			target := 300
			if c.name == "projected" {
				target = 16 // every projected class: 2 (var 1) × 4 × 2, var 21 nodeless
			}
			deliverAll(t, s, target)
			for _, l := range c.p.assume {
				for i := 0; i < s.UniqueCount(); i++ {
					if s.FullAssignmentAt(i)[l.Var()-1] != l.Positive() {
						t.Fatalf("solution %d violates pin %d", i, l)
					}
				}
			}
		})
	}

	t.Run("restored", func(t *testing.T) {
		s, err := spec.NewSampler(Config{BatchSize: 512, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		s.ContinuousStep(300)
		dec := problemRoundTrip(t, spec)
		rs, err := RestoreSampler(dec, roundTrip(t, s.Snapshot()))
		if err != nil {
			t.Fatal(err)
		}
		deliverAll(t, rs, 300)
	})
}

// TestFullAssignmentMatchesOracle covers the caller-row form: an arbitrary
// primary-input row expands exactly as the oracle does and leaves the pool
// group cache consistent.
func TestFullAssignmentMatchesOracle(t *testing.T) {
	p := matProblem(t)
	s, err := p.NewSampler(Config{BatchSize: 256, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.SampleUntil(100, 10*time.Second)
	r := rand.New(rand.NewSource(2))
	for k := 0; k < 50; k++ {
		row := make([]bool, p.NumInputs())
		for i := range row {
			row[i] = r.Intn(2) == 0
		}
		got, want := s.FullAssignment(row), p.AssignmentFromInputs(row)
		if fmtBits(got) != fmtBits(want) {
			t.Fatalf("row %d: %s, oracle %s", k, fmtBits(got), fmtBits(want))
		}
		checkLane(t, s, k)
	}
}

// TestFullAssignmentAtAllocs guards delivery's allocation budget: expanding
// one solution allocates only the returned slice, across group loads and
// word gathers alike.
func TestFullAssignmentAtAllocs(t *testing.T) {
	s, err := matProblem(t).NewSampler(Config{BatchSize: 512, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	s.SampleUntil(600, 10*time.Second)
	n := s.UniqueCount()
	if n <= groupLanes {
		t.Fatalf("only %d solutions; the guard needs more than one group", n)
	}
	i := 0
	allocs := testing.AllocsPerRun(2*n, func() {
		_ = s.FullAssignmentAt(i % n)
		i++
	})
	if allocs != 1 {
		t.Fatalf("FullAssignmentAt: %v allocs per solution, want 1", allocs)
	}
}
