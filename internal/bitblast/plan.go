package bitblast

import (
	"fmt"
	"slices"

	"repro/internal/circuit"
)

// This file is the Program's serialization surface: a compiled verifier's
// clause plan is pure data (node indices + complement flags after constant
// resolution), so a codec can persist it and rebuild the Program without
// re-running New's constant resolution over the CNF — the expensive half
// of verifier construction on large formulas. See internal/core's GDSP
// problem codec, the only intended consumer.

// Plan returns the compiled clause plan and the unsat flag: clause i is
// lits[ends[i-1]:ends[i]] (from 0 for i = 0). The returned slices are
// fresh copies; mutating them does not affect the Program.
func (p *Program) Plan() (lits []PlanLit, ends []int32, unsat bool) {
	return slices.Clone(p.lits), slices.Clone(p.ends), p.unsat
}

// FromPlan rebuilds a Program from a previously exported clause plan over
// c, in Plan's layout. Every node index and clause end is validated — a
// plan can cross a process boundary, so a malformed one must produce an
// error, never an out-of-range sweep. An unsat plan must carry no clauses
// (New resolves unsat to an empty plan), and no clause may be empty. The
// Program keeps lits and ends: the caller must not modify them afterwards.
func FromPlan(c *circuit.Circuit, lits []PlanLit, ends []int32, unsat bool) (*Program, error) {
	if c == nil {
		return nil, fmt.Errorf("bitblast: nil circuit")
	}
	if unsat && (len(ends) != 0 || len(lits) != 0) {
		return nil, fmt.Errorf("bitblast: unsat plan carries %d clauses", len(ends))
	}
	prev := int32(0)
	for i, end := range ends {
		if end <= prev || int(end) > len(lits) {
			return nil, fmt.Errorf("bitblast: clause %d of the plan ends at %d (previous end %d, %d literals)", i, end, prev, len(lits))
		}
		prev = end
	}
	if int(prev) != len(lits) {
		return nil, fmt.Errorf("bitblast: plan clauses cover %d of %d literals", prev, len(lits))
	}
	n := int32(len(c.Nodes))
	for j, l := range lits {
		if l.Node < 0 || l.Node >= n {
			return nil, fmt.Errorf("bitblast: plan literal %d references node %d of %d", j, l.Node, n)
		}
	}
	p := &Program{circ: c, unsat: unsat}
	if len(ends) > 0 {
		p.lits, p.ends = lits, ends
	}
	return p, nil
}
