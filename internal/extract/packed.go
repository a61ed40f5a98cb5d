package extract

import "repro/internal/cnf"

// The paper's resolution test asks whether f == ¬g for a candidate v,
// where f is the conjunction, over the window clauses containing ¬v, of
// each clause's remaining literals, and g the same over the clauses
// containing v. packedTester decides it straight from those clauses on
// bit-packed truth tables over their union support — one pattern per
// variable, OR across a clause, AND across clauses — so a failed test
// builds no expression at all.

// packedMaxVars bounds the union support the packed test tabulates: 2^16
// rows are 1024 words per table. Larger supports go to BDDs.
const packedMaxVars = 16

// lowPatterns[i] is the truth-table column of support variable i < 6
// within one 64-row word; variable i ≥ 6 is constant across a word and
// set in word w iff bit i-6 of w is.
var lowPatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// packedTester holds scratch space that successive tests reuse.
type packedTester struct {
	slot    []int32 // variable → support index during a test, -1 otherwise
	support []int
	f, g, c []uint64
}

func newPackedTester(maxVar int) *packedTester {
	slot := make([]int32, maxVar+1)
	for i := range slot {
		slot[i] = -1
	}
	return &packedTester{slot: slot}
}

// complementary decides f == ¬g for v over withV, the window clauses
// containing v. tabulated is false, and ok meaningless, when the union
// support exceeds packedMaxVars.
func (p *packedTester) complementary(withV []cnf.Clause, v int) (ok, tabulated bool) {
	support := p.support[:0]
	for _, c := range withV {
		for _, l := range c {
			if w := l.Var(); w != v && p.slot[w] < 0 {
				p.slot[w] = int32(len(support))
				support = append(support, w)
			}
		}
	}
	p.support = support
	defer func() {
		for _, w := range support {
			p.slot[w] = -1
		}
	}()
	if len(support) > packedMaxVars {
		return false, false
	}
	words := 1
	if len(support) > 6 {
		words = 1 << (len(support) - 6)
	}
	f, g, cw := p.table(&p.f, words), p.table(&p.g, words), p.table(&p.c, words)
	for i := range f {
		f[i], g[i] = ^uint64(0), ^uint64(0)
	}
	for _, c := range withV {
		hasPos, hasNeg := false, false
		clear(cw)
		for _, l := range c {
			w := l.Var()
			if w == v {
				if l.Positive() {
					hasPos = true
				} else {
					hasNeg = true
				}
				continue
			}
			p.orLit(cw, int(p.slot[w]), !l.Positive())
		}
		if hasNeg {
			for i := range f {
				f[i] &= cw[i]
			}
		}
		if hasPos {
			for i := range g {
				g[i] &= cw[i]
			}
		}
	}
	for i := range f {
		if f[i] != ^g[i] {
			return false, true
		}
	}
	return true, true
}

// table returns *buf resized to words words.
func (p *packedTester) table(buf *[]uint64, words int) []uint64 {
	if cap(*buf) < words {
		*buf = make([]uint64, words)
	}
	*buf = (*buf)[:words]
	return *buf
}

// orLit ORs the column of support variable i, complemented when neg, into
// the clause table cw.
func (p *packedTester) orLit(cw []uint64, i int, neg bool) {
	var flip uint64
	if neg {
		flip = ^uint64(0)
	}
	if i < 6 {
		m := lowPatterns[i] ^ flip
		for w := range cw {
			cw[w] |= m
		}
		return
	}
	shift := uint(i - 6)
	for w := range cw {
		cw[w] |= -(uint64(w) >> shift & 1) ^ flip
	}
}

// hasVar reports whether clause c mentions variable v.
func hasVar(c cnf.Clause, v int) bool {
	for _, l := range c {
		if l.Var() == v {
			return true
		}
	}
	return false
}
