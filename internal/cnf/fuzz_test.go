package cnf_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
)

// FuzzParseDIMACS drives the untrusted-input parser with the benchgen
// corpus (real Tseitin CNFs of every benchmark family) plus hand-written
// edge cases. Properties: no panic; a formula accepted under limits
// actually honours them; an accepted formula survives a
// serialize-and-reparse round trip with identical shape.
func FuzzParseDIMACS(f *testing.F) {
	for _, in := range benchgen.SmallSuite() {
		f.Add(in.Formula.DIMACSString())
	}
	f.Add("p cnf 2 1\n1 -2 0\n")
	f.Add("c only a comment\n")
	f.Add("p cnf 0 0\n")
	f.Add("1 2 0 -1 -2 0")
	f.Add("p cnf 999999999 1\n1 0\n")
	f.Add("1 2")   // unterminated clause
	f.Add("p cnf") // truncated problem line
	f.Add("-0 0\n")
	f.Add("1 99999999999999999999 0\n") // literal overflows int
	// Projection ("c ind" / "p show") corpora: well-formed, malformed,
	// out-of-range, duplicated — the parser must error cleanly, never panic
	// or accept a silently wrong projection.
	f.Add("c ind 1 2 0\np cnf 2 1\n1 2 0\n")
	f.Add("p show 1 0\np cnf 2 1\n1 2 0\n")
	f.Add("c ind 1 2\np cnf 2 1\n1 2 0\n")     // missing terminator
	f.Add("c ind 1 0 2\np cnf 2 1\n1 2 0\n")   // tokens after terminator
	f.Add("c ind 1 1 0\np cnf 2 1\n1 2 0\n")   // duplicate
	f.Add("c ind 9 0\np cnf 2 1\n1 2 0\n")     // out of range
	f.Add("c ind -3 0\np cnf 3 1\n1 2 3 0\n")  // negative
	f.Add("c ind x 0\np cnf 2 1\n1 2 0\n")     // non-numeric
	f.Add("c ind 99999999999999999999 0\n1 0") // projection var overflows int
	f.Add("c ind 2 0\nc ind 1 0\np cnf 2 1\n1 2 0\n")
	f.Add("c indent is a comment\np cnf 2 1\n1 2 0\n")

	lim := cnf.ParseLimits{
		MaxBytes:    1 << 20,
		MaxVars:     1 << 16,
		MaxClauses:  1 << 16,
		MaxLiterals: 1 << 18,
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := cnf.ParseDIMACSLimits(strings.NewReader(s), lim)
		if err != nil {
			if g != nil {
				t.Fatal("non-nil formula returned alongside an error")
			}
			return
		}
		if g.NumVars > lim.MaxVars {
			t.Fatalf("accepted %d vars past limit %d", g.NumVars, lim.MaxVars)
		}
		if len(g.Clauses) > lim.MaxClauses {
			t.Fatalf("accepted %d clauses past limit %d", len(g.Clauses), lim.MaxClauses)
		}
		st := g.Stats()
		if st.NumLits > lim.MaxLiterals {
			t.Fatalf("accepted %d literals past limit %d", st.NumLits, lim.MaxLiterals)
		}
		// An accepted projection is always valid: in range, duplicate-free.
		if err := cnf.ValidateProjection(g.NumVars, g.Projection); err != nil {
			t.Fatalf("accepted invalid projection: %v", err)
		}
		// Round trip: what we accepted must serialize to something the
		// unlimited parser reads back with the same shape.
		g2, err := cnf.ParseDIMACSString(g.DIMACSString())
		if err != nil {
			t.Fatalf("round trip parse: %v", err)
		}
		if st2 := g2.Stats(); st != st2 {
			t.Fatalf("round trip changed shape: %v -> %v", st, st2)
		}
		if len(g2.Projection) != len(g.Projection) {
			t.Fatalf("round trip changed projection: %v -> %v", g.Projection, g2.Projection)
		}
		for i := range g.Projection {
			if g2.Projection[i] != g.Projection[i] {
				t.Fatalf("round trip changed projection: %v -> %v", g.Projection, g2.Projection)
			}
		}
		// The limit error class must be stable: reparsing with a byte limit
		// below the serialized size yields ErrLimit, not a parse error.
		text := g.DIMACSString()
		if len(text) > 8 {
			if _, err := cnf.ParseDIMACSLimits(strings.NewReader(text), cnf.ParseLimits{MaxBytes: 8}); !errors.Is(err, cnf.ErrLimit) {
				t.Fatalf("byte-limited reparse: got %v, want ErrLimit", err)
			}
		}
	})
}

// FuzzAssumeSpec: the ?assume= grammar (ParseAssumeList, both spellings)
// never panics and never silently accepts a literal the validator would
// reject as zero.
func FuzzAssumeSpec(f *testing.F) {
	f.Add("1,2,3")
	f.Add("[1,-4]")
	f.Add("-1, 2 ,-3")
	f.Add("[]")
	f.Add("0")
	f.Add("1,,2")
	f.Add("[1.5]")
	f.Add("  ")
	f.Add("[9223372036854775807]")
	f.Fuzz(func(t *testing.T, spec string) {
		lits, err := cnf.ParseAssumeList(spec)
		if err != nil {
			return
		}
		for _, l := range lits {
			if l == 0 {
				t.Fatalf("spec %q parsed to a zero literal", spec)
			}
		}
	})
}
