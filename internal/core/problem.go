package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitblast"
	"repro/internal/cnf"
	"repro/internal/extract"
)

// Problem is the immutable compiled form of one transformed SAT instance:
// the parsed CNF, its extraction result, the fused register-allocated GD
// engine and the bit-parallel CNF verifier, plus the cache tile derived
// from the engine's working set. A Problem carries no per-run state — it
// is safe to share between any number of concurrently running Samplers,
// which is what lets a service compile an instance once and serve many
// sampling sessions from the single artifact (see internal/sampling).
type Problem struct {
	formula *cnf.Formula
	ext     *extract.Result
	eng     *engine
	verify  *bitblast.Program
	tile    int
	key     string // cnf.Formula.ContentHash — the snapshot/cache identity
	// assume is the canonical assumption set this problem was specialized
	// under (nil when unspecialized); key is then
	// cnf.AssumeKey(formula.ContentHash(), assume). See specialize.go.
	assume []cnf.Lit
	// varNode is the flat var→node table delivery reads full assignments
	// through: varNode[v-1] is CNF variable v's circuit node, or varFalse /
	// varTrue for a variable with no node. Derived state (see derive): every
	// construction path recomputes it, no codec carries it.
	varNode []int32
}

// varNode entries of variables with no circuit node.
const (
	varFalse int32 = -1 // the nodeless default (bitblast/extract convention)
	varTrue  int32 = -2 // nodeless, pinned true by an assumption
)

// Compile lowers a transformation result into a shareable Problem: it
// compiles the fused engine, the bitblast verifier, and the cache tile.
// The returned Problem is read-only and safe for concurrent use.
func Compile(f *cnf.Formula, ext *extract.Result) (*Problem, error) {
	if len(ext.Circuit.Inputs) == 0 {
		return nil, errors.New("core: transformed circuit has no primary inputs")
	}
	p := &Problem{
		formula: f,
		ext:     ext,
		eng:     compileEngine(ext.Circuit),
		verify:  ext.Verifier(f),
		key:     f.ContentHash(),
	}
	p.derive()
	return p, nil
}

// derive computes the state every construction path (Compile,
// DecodeProblem, Specialize) rebuilds rather than serializes: the cache
// tile and the var→node table. Nodeless variables are false unless an
// assumption pins them — a pin on a variable with a node is already
// enforced by the folded constants and constraints.
func (p *Problem) derive() {
	p.tile = tileFor(p.eng)
	p.varNode = make([]int32, p.formula.NumVars)
	for i := range p.varNode {
		p.varNode[i] = varFalse
	}
	for v, id := range p.ext.NodeOf {
		p.varNode[v-1] = int32(id)
	}
	for _, l := range p.assume {
		if p.varNode[l.Var()-1] < 0 && l.Positive() {
			p.varNode[l.Var()-1] = varTrue
		}
	}
}

// tileFor sizes the cache tile (rows per worker pass) so one worker's full
// forward+backward working set (vals + adjoints) stays cache-resident
// regardless of batch size.
func tileFor(e *engine) int {
	const tileTargetBytes = 512 << 10
	tile := tileTargetBytes / (4 * (e.numSlots + e.numGregs))
	if tile < 32 {
		tile = 32
	}
	if tile > 512 {
		tile = 512
	}
	return tile
}

// CompileCNF transforms f with extract.Transform and compiles the result.
func CompileCNF(f *cnf.Formula) (*Problem, error) {
	ext, err := extract.Transform(f)
	if err != nil {
		return nil, err
	}
	return Compile(f, ext)
}

// Formula returns the CNF this problem was compiled from.
func (p *Problem) Formula() *cnf.Formula { return p.formula }

// Key returns the formula's content hash — the identity session snapshots
// are keyed by (RestoreSampler refuses a snapshot whose key differs) and
// the cache key the sampling layer stores this artifact under.
func (p *Problem) Key() string { return p.key }

// Extraction returns the transformation result backing this problem.
func (p *Problem) Extraction() *extract.Result { return p.ext }

// NumInputs returns the primary-input count of the learned function.
func (p *Problem) NumInputs() int { return p.eng.numInputs }

// Tile returns the cache tile (rows per worker pass) derived from the
// engine's working set.
func (p *Problem) Tile() int { return p.tile }

// NewSampler builds a sampler session over this compiled problem. Any
// number of samplers may run concurrently over one Problem; each owns its
// V/momentum matrices, per-worker scratch, verifier state and dedup pool.
func (p *Problem) NewSampler(cfg Config) (*Sampler, error) {
	return newSession(p, cfg)
}

// OutputWeights aggregates per-clause loss weights onto the engine's
// constrained outputs through the extraction's provenance table
// (extract.Result.OutputSources): an output's weight is the mean weight of
// the CNF clauses its constraint consumed. Outputs without recorded
// provenance (or compiled from a pre-provenance extraction result) keep
// weight 1, as do clauses absorbed into intermediate resolutions — the
// weighting is a loss-shaping knob, not an exact clause decomposition.
// clauseWeights must have one finite, non-negative entry per CNF clause.
func (p *Problem) OutputWeights(clauseWeights []float64) ([]float32, error) {
	if len(clauseWeights) != p.formula.NumClauses() {
		return nil, fmt.Errorf("core: %d clause weights for %d clauses",
			len(clauseWeights), p.formula.NumClauses())
	}
	for i, w := range clauseWeights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("core: clause weight %d is %v (want finite, >= 0)", i, w)
		}
	}
	out := make([]float32, len(p.eng.outputs))
	for k, o := range p.eng.outputs {
		out[k] = 1
		if int(o.src) >= len(p.ext.OutputSources) {
			continue
		}
		srcs := p.ext.OutputSources[o.src]
		if len(srcs) == 0 {
			continue
		}
		sum := 0.0
		for _, ci := range srcs {
			sum += clauseWeights[ci]
		}
		out[k] = float32(sum / float64(len(srcs)))
	}
	return out, nil
}

// MemoryEstimate returns the resident bytes a sampler session over this
// problem occupies for the given device worker count, batch size, and
// momentum setting (the Fig. 3 right memory model). The engine's tiled
// value/adjoint scratch is a fixed per-worker cost — batch rows stream
// through it — so scaling the batch only grows the linear terms: the
// soft-input matrix V (plus momentum when enabled), the packed hardened
// columns, and the per-word validity masks. Pure arithmetic on the
// compiled shape: no session needs to exist.
func (p *Problem) MemoryEstimate(workers, batch int, momentum bool) int64 {
	n := int64(p.eng.numInputs)
	b := int64(batch)
	fixed := int64(workers) * int64(p.tile) * int64(p.eng.numSlots+p.eng.numGregs) * 4
	fixed += int64(workers) * p.verify.ScratchBytes() // per-worker bitblast Eval
	linear := 4 * b * n                               // V
	if momentum {
		linear += 4 * b * n
	}
	linear += b * n / 8 // packed hardened columns
	linear += b / 8     // validity masks
	linear += 10 * b    // continuous scheduler: ages, restart counters, change/retire flags
	linear += b / 8     // continuous scheduler: dirty-word mask
	return fixed + linear
}

// BatchForBudget returns the largest batch size whose MemoryEstimate fits
// the given byte budget (at least 1): the fixed engine scratch is paid
// first and the remainder is divided by the per-row cost.
func (p *Problem) BatchForBudget(workers int, momentum bool, budget int64) int {
	fixed := p.MemoryEstimate(workers, 0, momentum)
	perRow := p.MemoryEstimate(workers, 1024, momentum) - fixed
	if perRow <= 0 {
		return 1
	}
	b := (budget - fixed) * 1024 / perRow
	if b < 1 {
		return 1
	}
	return int(b)
}
