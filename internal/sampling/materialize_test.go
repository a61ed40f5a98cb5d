package sampling

import (
	"context"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/tensor"
)

// matDIMACS has derived variables, 1568 models and four variables no
// clause mentions (21..24: nodeless).
const matDIMACS = `p cnf 24 23
-1 -2 0
1 2 0
-2 3 0
2 -3 0
-3 4 0
3 -4 0
-4 -11 5 0
-4 11 -5 0
4 -12 5 0
4 12 -5 0
-6 7 0
6 -7 0
-7 8 0
7 -8 0
-8 -9 0
8 9 0
-9 -13 10 0
-9 13 -10 0
9 -14 10 0
9 14 -10 0
10 0
15 16 17 0
18 19 20 0
`

// oracleAssignment is the scalar expansion delivery must match: a per-row
// circuit evaluation through the extraction, nodeless variables false
// unless pinned.
func oracleAssignment(p *core.Problem, row []bool) []bool {
	ext := p.Extraction()
	a := ext.AssignmentFromInputs(p.Formula().NumVars, row)
	for _, l := range p.Assumptions() {
		if _, ok := ext.NodeOf[l.Var()]; !ok {
			a[l.Var()-1] = l.Positive()
		}
	}
	return a
}

// TestCheckpointRestoredDelivery is the materializer differential across a
// checkpoint: a specialized session (nodeless positive and negative pins)
// is cut mid-stream, its GDSC envelope decoded and restored cold onto
// another device, and every solution the restored session delivers —
// the backlog owed past the cut and the fresh ones — must equal the
// scalar expansion of its primary-input row.
func TestCheckpointRestoredDelivery(t *testing.T) {
	f, err := cnf.ParseDIMACSString(matDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileProblem(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{Seed: 7, BatchSize: 512, Device: tensor.Sequential(), Assumptions: []cnf.Lit{21, -22, 24}}
	sess, err := p.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	if _, err := sess.Stream(context.Background(), 400, collectSink(&first, 70)); err != nil {
		t.Fatal(err)
	}
	env, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := resumeVia(NewCompiler(1), ck, tensor.ParallelN(3))
	if err != nil {
		t.Fatal(err)
	}
	c := restored.Core()
	next := restored.Delivered()
	if _, err := restored.Stream(context.Background(), 400, func(sol []bool) error {
		want := oracleAssignment(c.Problem(), c.SolutionsFrom(next)[0])
		if bitString(sol) != bitString(want) {
			t.Fatalf("delivered solution %d: %s, oracle %s", next, bitString(sol), bitString(want))
		}
		if !f.Sat(sol) || !sol[20] || sol[21] || !sol[23] {
			t.Fatalf("delivered solution %d violates the formula or a pin", next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next < 400 {
		t.Fatalf("restored stream reached %d of 400 solutions", next)
	}
}
