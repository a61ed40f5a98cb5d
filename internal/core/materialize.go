package core

import (
	"fmt"

	"repro/internal/bitblast"
)

// Delivery: the pool stores primary-input rows, callers receive dense CNF
// assignments. Rows are expanded with the same packed node sweep that
// verified them — up to groupLanes pool solutions per sweep through the
// session's verifier Eval — and each CNF variable's bit is read through
// the problem's flat var→node table. See DESIGN.md ("Bit-parallel
// verification", delivery).

// groupLanes is how many pool solutions one materialization sweep covers.
const groupLanes = bitblast.SweepWidth * 64

// materializer is a session's delivery cache: the packed primary inputs of
// one group of consecutive pool solutions, and one gathered word per CNF
// variable for the group word last read. Buffers are allocated on first
// delivery and reused: inputs×SweepWidth words plus NumVars words.
type materializer struct {
	base, n int        // the group covers pool solutions [base, base+n)
	word    int        // group word whose lanes varw holds (-1: none)
	vals    []uint64   // node values of the group sweep (the Eval's scratch)
	colbuf  []uint64   // backing store for cols
	cols    [][]uint64 // one SweepWidth-word packed column per primary input
	varw    []uint64   // bit l of varw[v-1]: CNF variable v in lane l of word
}

// FullAssignmentAt expands the i-th unique solution into a freshly
// allocated dense CNF assignment (assign[v-1] = value of CNF variable v;
// indices [0, UniqueCount())). Consecutive indices are served from one
// packed sweep over up to groupLanes solutions; the returned slice is the
// only allocation.
func (s *Sampler) FullAssignmentAt(i int) []bool {
	m := &s.mat
	if i < m.base || i >= m.base+m.n {
		s.loadGroup(s.sols[i:min(i+groupLanes, len(s.sols))], i)
	}
	return s.laneAssignment(i - m.base)
}

// FullAssignment expands a primary-input solution (in circuit input order)
// into a dense CNF assignment (assign[v-1] = value of CNF variable v).
func (s *Sampler) FullAssignment(sol []bool) []bool {
	if len(sol) != s.prob.eng.numInputs {
		panic(fmt.Sprintf("core: got %d input values for %d inputs", len(sol), s.prob.eng.numInputs))
	}
	s.loadGroup([][]bool{sol}, 0)
	out := s.laneAssignment(0)
	s.mat.n = 0 // a caller's row is not a pool group
	return out
}

// loadGroup transposes rows into the group's packed input columns (lane l
// of the group is rows[l]) and marks the group unswept.
func (s *Sampler) loadGroup(rows [][]bool, base int) {
	m := &s.mat
	if m.colbuf == nil {
		n := s.prob.eng.numInputs
		m.colbuf = make([]uint64, n*bitblast.SweepWidth)
		m.cols = make([][]uint64, n)
		for i := range m.cols {
			m.cols[i] = m.colbuf[i*bitblast.SweepWidth : (i+1)*bitblast.SweepWidth]
		}
		m.varw = make([]uint64, len(s.prob.varNode))
	}
	clear(m.colbuf)
	for l, row := range rows {
		w, bit := l>>6, uint64(1)<<(uint(l)&63)
		for i, v := range row {
			if v {
				m.colbuf[i*bitblast.SweepWidth+w] |= bit
			}
		}
	}
	m.base, m.n, m.word, m.vals = base, len(rows), -1, nil
}

// laneAssignment returns lane's dense CNF assignment from the loaded group,
// gathering the lane's word (var-major, so the per-lane read is sequential)
// and sweeping the group first when the Eval no longer holds it.
func (s *Sampler) laneAssignment(lane int) []bool {
	m := &s.mat
	if w := lane >> 6; w != m.word {
		if m.vals == nil {
			m.vals = s.veval.Nodes(m.cols, (m.n+63)/64)
		}
		for v, nd := range s.prob.varNode {
			switch {
			case nd >= 0:
				m.varw[v] = m.vals[int(nd)*bitblast.SweepWidth+w]
			case nd == varTrue:
				m.varw[v] = ^uint64(0)
			default:
				m.varw[v] = 0
			}
		}
		m.word = w
	}
	out := make([]bool, len(m.varw))
	b := uint(lane) & 63
	for v, x := range m.varw {
		out[v] = x>>b&1 == 1
	}
	return out
}

// evalReused records that a verify sweep overwrote the session Eval's node
// values: the group's remaining words must be re-swept before gathering.
func (m *materializer) evalReused() { m.vals = nil }
