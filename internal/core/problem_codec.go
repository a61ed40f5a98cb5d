package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/codec"
	"repro/internal/extract"
)

// This file implements the durable-compile-tier codec: a compiled Problem
// — the expensive, immutable artifact behind every sampling session — is
// serialized to a versioned "GDSP" binary blob and rebuilt without
// re-running extract.Transform (the dominant compile cost on large
// instances), the engine fusion passes, or the bitblast constant
// resolution. Decode is a linear parse + validate over the sections, so a
// fleet replica can load a peer-compiled artifact from the shared
// content-addressed store orders of magnitude faster than recompiling it
// (the `paperbench -exp cache` row measures exactly this).
//
// The format uses the internal/codec framing with a SHA-256 trailer, so a
// torn or corrupted file is a clean error, never a panic
// (FuzzDecodeProblem guards this). Beyond the trailer, decode
// cross-checks the content address: the embedded formula must hash
// (cnf.Formula.ContentHash) to the embedded key, so a blob filed under
// the wrong key in the store can never serve the wrong problem.
//
// Sections that are cheap to recompute are NOT serialized: the cache tile
// derives from the engine dimensions exactly as Compile derives it, input
// node names rebuild from their CNF variables, and extract.Result.Bindings
// (logic.Expr trees used only by offline tooling) are dropped — a decoded
// Problem carries a nil Bindings slice. Everything the sampling runtime
// reads (engine tape, verifier plan, NodeOf, projection provenance,
// OutputSources) round-trips exactly, which is what makes store-loaded
// Problems stream bit-identical solutions to freshly compiled ones (the
// differential test in problem_codec_test.go and e2e shard tier).

// ProblemVersion is the current problem codec version. Version 1 is the
// unspecialized format; version 2 adds an assumption section directly
// after the key (see specialize.go) and is only written when the problem
// carries assumptions, so every unspecialized artifact stays byte-for-byte
// a version-1 blob that older readers accept. Decode accepts both; any
// other version is rejected — stored artifacts outlive the process that
// wrote them, so silent cross-version reinterpretation is never
// acceptable.
const ProblemVersion = 2

// problemVersionBase is the assumption-free encoding version.
const problemVersionBase = 1

// ErrBadProblem is wrapped by every problem decode failure, so the store
// layer can map "this blob is garbage" to a quarantine-and-miss without
// string matching.
var ErrBadProblem = errors.New("core: invalid problem encoding")

// problemFormat frames every encoded problem: "GDSP", versions 1-2, a
// SHA-256 trailer.
var problemFormat = codec.Format{
	Magic:      [4]byte{'G', 'D', 'S', 'P'},
	Trailer:    codec.SHA256,
	MinVersion: problemVersionBase,
	MaxVersion: ProblemVersion,
	Err:        ErrBadProblem,
}

// maxProblemDim is a sanity bound on decoded section counts — far past
// any real compiled instance, but small enough that a forged length field
// can never drive a multi-gigabyte allocation (count() bounds allocations
// by the remaining input anyway; this bounds derived products).
const maxProblemDim = 1 << 26

// MarshalBinary encodes the compiled problem in the versioned GDSP binary
// format, with a SHA-256 trailer over the whole encoding. The result is
// self-contained: DecodeProblem rebuilds an equivalent Problem from it
// alone.
func (p *Problem) MarshalBinary() ([]byte, error) {
	if len(p.key) > 0xFFFF {
		return nil, fmt.Errorf("%w: oversized key", ErrBadProblem)
	}
	f, ext, eng := p.formula, p.ext, p.eng
	c := ext.Circuit
	est := 256 + len(p.key) + 8*len(f.Clauses) + 4*len(f.Projection) +
		14*len(c.Nodes) + 4*len(c.Inputs) + 5*len(c.Outputs) +
		8*len(ext.NodeOf) + 25*len(eng.code) + 16*len(eng.outputs)
	for _, cl := range f.Clauses {
		est += 4 * len(cl)
	}
	version := uint16(problemVersionBase)
	if len(p.assume) > 0 {
		version = ProblemVersion
	}
	e := problemFormat.Encoder(version, est)
	e.Str(p.key)
	if len(p.assume) > 0 {
		codec.PutI32s(e, p.assume)
	}

	// Formula.
	e.U32(uint32(f.NumVars))
	e.U32(uint32(len(f.Clauses)))
	for _, cl := range f.Clauses {
		codec.PutI32s(e, cl)
	}
	codec.PutI32s(e, f.Projection)

	// Circuit. Names are not stored: input nodes rebuild theirs from Var.
	e.U32(uint32(len(c.Nodes)))
	for _, nd := range c.Nodes {
		e.U8(uint8(nd.Type))
		e.U8(b2u(nd.Val))
		e.U32(uint32(int32(nd.Var)))
		codec.PutI32s(e, nd.Fanin)
	}
	codec.PutI32s(e, c.Inputs)
	e.U32(uint32(len(c.Outputs)))
	for _, o := range c.Outputs {
		e.U32(uint32(o.Node))
		e.U8(b2u(o.Target))
	}

	// Extraction (minus Bindings; see the file comment). NodeOf encodes
	// var-ascending so equal extractions produce identical bytes.
	codec.PutI32s(e, ext.PrimaryInputs)
	codec.PutI32s(e, ext.Intermediates)
	codec.PutI32s(e, ext.PrimaryOutputs)
	e.U32(uint32(len(ext.NodeOf)))
	for _, v := range slices.Sorted(maps.Keys(ext.NodeOf)) {
		e.U32(uint32(int32(v)))
		e.U32(uint32(ext.NodeOf[v]))
	}
	e.U32(uint32(len(ext.OutputSources)))
	for _, srcs := range ext.OutputSources {
		codec.PutI32s(e, srcs)
	}
	e.U64(uint64(ext.TransformTime.Nanoseconds()))
	e.U32(uint32(ext.Windows))
	e.U32(uint32(ext.Fallbacks))
	e.U32(uint32(ext.SignatureHits))

	// Engine.
	e.U32(uint32(eng.numInputs))
	e.U32(uint32(eng.numSlots))
	e.U32(uint32(eng.numGregs))
	e.U32(uint32(len(eng.code)))
	for _, in := range eng.code {
		e.U8(uint8(in.op))
		codec.AppendI32s(e, []int32{in.dst, in.a, in.b, in.gd, in.ga, in.gb})
	}
	e.U32(uint32(len(eng.outputs)))
	for _, o := range eng.outputs {
		e.U32(uint32(o.slot))
		e.U32(uint32(o.greg))
		e.F32(o.target)
		e.U32(uint32(o.src))
	}
	e.F64(eng.constLoss)
	packBools(e.Grow((len(eng.liveIn)+7)/8), eng.liveIn)
	codec.PutI32s(e, eng.liveInList)

	// Verifier plan.
	lits, ends, unsat := p.verify.Plan()
	e.U8(b2u(unsat))
	e.U32(uint32(len(ends)))
	start := int32(0)
	for _, end := range ends {
		e.U32(uint32(end - start))
		for _, l := range lits[start:end] {
			e.U32(uint32(l.Node))
			e.U8(b2u(l.Neg))
		}
		start = end
	}
	return e.Seal(), nil
}

// DecodeProblem parses and validates a GDSP encoding back into a live
// Problem. It never panics: truncated, corrupted, or version-mismatched
// input returns an error wrapping ErrBadProblem. Validation is structural
// (every index bounds-checked, circuit topology and arity re-checked, the
// embedded formula re-hashed against the embedded key), so a decoded
// Problem is safe to run sessions over; semantic agreement between the
// engine tape and the circuit is the writer's responsibility — the store
// only ever reads blobs this process family wrote (see DESIGN.md, trust
// model).
func DecodeProblem(data []byte) (*Problem, error) {
	return decodeProblem(data, nil, "")
}

// DecodeProblemOf is DecodeProblem for a caller that already holds the
// formula the blob must embed, and that formula's content hash (a
// compiler loading the artifact for a formula it has just hashed). The
// embedded formula is compared with f instead of being rebuilt and
// re-hashed, and the Problem shares f. A blob embedding any other
// formula is rejected.
func DecodeProblemOf(data []byte, f *cnf.Formula, hash string) (*Problem, error) {
	return decodeProblem(data, f, hash)
}

func decodeProblem(data []byte, known *cnf.Formula, knownHash string) (*Problem, error) {
	d, ver, err := problemFormat.Open(data)
	if err != nil {
		return nil, err
	}
	key := d.Str()
	var assume []cnf.Lit
	if ver == ProblemVersion {
		assume = codec.I32s[cnf.Lit](d, "assumptions")
		if d.Err() == nil && len(assume) == 0 {
			return nil, fmt.Errorf("%w: version %d blob with no assumptions (canonical form is version %d)", ErrBadProblem, ver, problemVersionBase)
		}
	}

	var f *cnf.Formula
	if known == nil {
		f = decodeFormula(d)
	} else {
		f = matchFormula(d, known)
	}
	circ := decodeCircuit(d, f)
	ext := decodeExtraction(d, f, circ)
	eng := decodeEngine(d, circ)
	verify := decodeVerifyPlan(d, circ)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	// The content-address cross-check: the blob serves exactly the formula
	// (specialized under exactly the assumptions) its key names, or it
	// serves nothing.
	hash := knownHash
	if known == nil {
		hash = f.ContentHash()
	}
	if err := cnf.CheckAssumeKey(f.NumVars, hash, assume, key); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProblem, err)
	}

	p := &Problem{formula: f, ext: ext, eng: eng, verify: verify, key: key, assume: assume}
	// The tile and var→node table are derived state: recompute them
	// exactly as Compile does.
	p.derive()
	return p, nil
}

func decodeFormula(d *codec.Dec) *cnf.Formula {
	nv := int(d.U32())
	if d.Err() == nil && (nv < 1 || nv > maxProblemDim) {
		d.Fail("implausible variable count %d", nv)
	}
	ncl := d.Count(4, "clauses")
	f := &cnf.Formula{NumVars: nv}
	f.Clauses = make([]cnf.Clause, 0, ncl)
	recs, total := d.Records(ncl, 0, 4, "clause literals")
	// Every clause is a sub-slice of one exactly sized literal array.
	lits := make([]cnf.Lit, total)
	for i := 0; i < ncl && d.Err() == nil; i++ {
		_, raw := recs.Next()
		n := len(raw) / 4
		cl := codec.Words(lits[:n:n], raw)
		lits = lits[n:]
		for j, l := range cl {
			if l == 0 || l.Var() > nv {
				d.Fail("clause %d literal %d is %d over %d variables", i, j, l, nv)
				return f
			}
		}
		f.Clauses = append(f.Clauses, cl)
	}
	proj := codec.I32s[int](d, "projection")
	if d.Err() == nil && len(proj) > 0 {
		if err := cnf.ValidateProjection(nv, proj); err != nil {
			d.Fail("%v", err)
			return f
		}
		f.Projection = proj
	}
	return f
}

// matchFormula reads the formula section and checks that it encodes f,
// allocating nothing. It returns f.
func matchFormula(d *codec.Dec, f *cnf.Formula) *cnf.Formula {
	if int(d.U32()) != f.NumVars || d.Count(4, "clauses") != len(f.Clauses) {
		d.Fail("embedded formula differs from the expected one")
		return f
	}
	recs, _ := d.Records(len(f.Clauses), 0, 4, "clause literals")
	for _, cl := range f.Clauses {
		if _, raw := recs.Next(); d.Err() == nil && !sameWords(raw, cl) {
			d.Fail("embedded formula differs from the expected one")
			return f
		}
	}
	if !sameWords(d.Take(4*d.Count(4, "projection")), f.Projection) {
		d.Fail("embedded projection differs from the expected one")
	}
	return f
}

// sameWords reports whether raw holds exactly vs as 32-bit words.
func sameWords[T codec.Int32](raw []byte, vs []T) bool {
	if len(raw) != 4*len(vs) {
		return false
	}
	for i, v := range vs {
		if int32(binary.LittleEndian.Uint32(raw[4*i:])) != int32(v) {
			return false
		}
	}
	return true
}

func decodeCircuit(d *codec.Dec, f *cnf.Formula) *circuit.Circuit {
	nn := d.Count(10, "circuit nodes")
	c := &circuit.Circuit{Nodes: make([]circuit.Node, 0, nn)}
	// A node record is type, value and variable (6 bytes), then its
	// fanins. Every fanin list is a sub-slice of one exactly sized array.
	recs, total := d.Records(nn, 6, 4, "node fanins")
	if d.Err() != nil {
		return c
	}
	fanins := make([]circuit.NodeID, total)
	inputSeen := 0
	for id := 0; id < nn; id++ {
		head, raw := recs.Next()
		t := circuit.GateType(head[0])
		val := head[1] != 0
		v := int(int32(binary.LittleEndian.Uint32(head[2:])))
		nf := len(raw) / 4
		fanin := codec.Words(fanins[:nf:nf], raw)
		fanins = fanins[nf:]
		if t > circuit.Xnor {
			d.Fail("node %d has unknown gate type %d", id, t)
			return c
		}
		switch t {
		case circuit.Input, circuit.Const:
			if nf != 0 {
				d.Fail("node %d: %v with %d fanins", id, t, nf)
				return c
			}
		case circuit.Buf, circuit.Not:
			if nf != 1 {
				d.Fail("node %d: %v with %d fanins", id, t, nf)
				return c
			}
		default:
			if nf < 2 {
				d.Fail("node %d: %v with %d fanins", id, t, nf)
				return c
			}
		}
		if v < 0 || v > f.NumVars {
			d.Fail("node %d claims CNF variable %d of %d", id, v, f.NumVars)
			return c
		}
		nd := circuit.Node{Type: t, Val: val, Var: v}
		for i, fid := range fanin {
			if fid < 0 || int(fid) >= id {
				d.Fail("node %d fanin %d is %d (topological order violated)", id, i, fid)
				return c
			}
		}
		if nf > 0 {
			nd.Fanin = fanin
		}
		if t == circuit.Input {
			inputSeen++
			if v > 0 {
				nd.Name = "x" + strconv.Itoa(v)
			}
		}
		c.Nodes = append(c.Nodes, nd)
	}
	c.Inputs = codec.I32s[circuit.NodeID](d, "circuit inputs")
	if d.Err() == nil && len(c.Inputs) != inputSeen {
		d.Fail("input list has %d entries for %d input nodes", len(c.Inputs), inputSeen)
	}
	if d.Err() != nil {
		return c
	}
	seen := make([]bool, len(c.Nodes))
	for i, id := range c.Inputs {
		if id < 0 || int(id) >= len(c.Nodes) || c.Nodes[id].Type != circuit.Input || seen[id] {
			d.Fail("input %d is node %d (missing, non-input, or repeated)", i, id)
			return c
		}
		seen[id] = true
	}
	nout := d.Count(5, "circuit outputs")
	if d.Err() != nil {
		return c
	}
	c.Outputs = make([]circuit.Output, nout)
	for i := range c.Outputs {
		id := int32(d.U32())
		target := d.U8() != 0
		if d.Err() != nil {
			return c
		}
		if id < 0 || int(id) >= len(c.Nodes) {
			d.Fail("output %d references node %d of %d", i, id, len(c.Nodes))
			return c
		}
		c.Outputs[i] = circuit.Output{Node: circuit.NodeID(id), Target: target}
	}
	return c
}

func decodeExtraction(d *codec.Dec, f *cnf.Formula, c *circuit.Circuit) *extract.Result {
	ext := &extract.Result{Circuit: c}
	checkVars := func(vs []int, what string) {
		for _, v := range vs {
			if d.Err() == nil && (v < 1 || v > f.NumVars) {
				d.Fail("%s variable %d of %d", what, v, f.NumVars)
			}
		}
	}
	ext.PrimaryInputs = codec.I32s[int](d, "primary inputs")
	checkVars(ext.PrimaryInputs, "primary input")
	ext.Intermediates = codec.I32s[int](d, "intermediates")
	checkVars(ext.Intermediates, "intermediate")
	ext.PrimaryOutputs = codec.I32s[int](d, "primary outputs")
	checkVars(ext.PrimaryOutputs, "primary output")
	if d.Err() != nil {
		return ext
	}
	nmap := d.Count(8, "node map")
	raw := d.Take(8 * nmap)
	if d.Err() != nil {
		return ext
	}
	ext.NodeOf = make(map[int]circuit.NodeID, nmap)
	prev := 0
	for i := 0; i < nmap; i++ {
		v := int(int32(binary.LittleEndian.Uint32(raw[8*i:])))
		id := int32(binary.LittleEndian.Uint32(raw[8*i+4:]))
		if v <= prev || v > f.NumVars {
			d.Fail("node map entry %d: variable %d (want ascending, <= %d)", i, v, f.NumVars)
			return ext
		}
		if id < 0 || int(id) >= len(c.Nodes) {
			d.Fail("node map entry %d: node %d of %d", i, id, len(c.Nodes))
			return ext
		}
		ext.NodeOf[v] = circuit.NodeID(id)
		prev = v
	}
	nsrc := d.Count(4, "output provenance")
	if d.Err() == nil && nsrc != len(c.Outputs) {
		d.Fail("provenance for %d outputs, circuit has %d", nsrc, len(c.Outputs))
	}
	if d.Err() != nil {
		return ext
	}
	ext.OutputSources = make([][]int, nsrc)
	for i := range ext.OutputSources {
		srcs := codec.I32s[int](d, "provenance clauses")
		for _, ci := range srcs {
			if d.Err() == nil && (ci < 0 || ci >= len(f.Clauses)) {
				d.Fail("provenance clause %d of %d", ci, len(f.Clauses))
			}
		}
		if d.Err() != nil {
			return ext
		}
		ext.OutputSources[i] = srcs
	}
	ext.TransformTime = time.Duration(d.U64())
	ext.Windows = int(d.U32())
	ext.Fallbacks = int(d.U32())
	ext.SignatureHits = int(d.U32())
	return ext
}

func decodeEngine(d *codec.Dec, c *circuit.Circuit) *engine {
	eng := &engine{
		numInputs: int(d.U32()),
		numSlots:  int(d.U32()),
		numGregs:  int(d.U32()),
	}
	if d.Err() != nil {
		return eng
	}
	if eng.numInputs != len(c.Inputs) || eng.numInputs < 1 {
		d.Fail("engine has %d inputs, circuit has %d", eng.numInputs, len(c.Inputs))
		return eng
	}
	if eng.numSlots < eng.numInputs || eng.numSlots > maxProblemDim ||
		eng.numGregs < eng.numInputs || eng.numGregs > maxProblemDim {
		d.Fail("implausible engine shape slots=%d gregs=%d inputs=%d", eng.numSlots, eng.numGregs, eng.numInputs)
		return eng
	}
	ncode := d.Count(25, "engine code")
	if d.Err() != nil {
		return eng
	}
	eng.code = make([]einstr, ncode)
	for i := range eng.code {
		op := eop(d.U8())
		raw := d.Take(24)
		if d.Err() != nil {
			return eng
		}
		in := einstr{
			op:  op,
			dst: int32(binary.LittleEndian.Uint32(raw[0:])),
			a:   int32(binary.LittleEndian.Uint32(raw[4:])),
			b:   int32(binary.LittleEndian.Uint32(raw[8:])),
			gd:  int32(binary.LittleEndian.Uint32(raw[12:])),
			ga:  int32(binary.LittleEndian.Uint32(raw[16:])),
			gb:  int32(binary.LittleEndian.Uint32(raw[20:])),
		}
		if op > eNot {
			d.Fail("instruction %d has unknown op %d", i, op)
			return eng
		}
		ns, ng, ni := int32(eng.numSlots), int32(eng.numGregs), int32(eng.numInputs)
		if in.dst < ni || in.dst >= ns || in.a < 0 || in.a >= ns || in.b < 0 || in.b >= ns {
			d.Fail("instruction %d slots out of range (dst=%d a=%d b=%d over %d)", i, in.dst, in.a, in.b, ns)
			return eng
		}
		if in.gd < 0 || in.gd >= ng || in.ga < 0 || in.ga >= ng || in.gb < 0 || in.gb >= ng {
			d.Fail("instruction %d registers out of range (gd=%d ga=%d gb=%d over %d)", i, in.gd, in.ga, in.gb, ng)
			return eng
		}
		eng.code[i] = in
	}
	nouts := d.Count(16, "engine outputs")
	if d.Err() != nil {
		return eng
	}
	eng.outputs = make([]eout, nouts)
	for i := range eng.outputs {
		o := eout{
			slot:   int32(d.U32()),
			greg:   int32(d.U32()),
			target: d.F32(),
			src:    int32(d.U32()),
		}
		if d.Err() != nil {
			return eng
		}
		if o.slot < 0 || o.slot >= int32(eng.numSlots) || o.greg < 0 || o.greg >= int32(eng.numGregs) {
			d.Fail("output %d slot/register out of range (slot=%d greg=%d)", i, o.slot, o.greg)
			return eng
		}
		if o.src < 0 || o.src >= int32(len(c.Outputs)) {
			d.Fail("output %d provenance index %d of %d", i, o.src, len(c.Outputs))
			return eng
		}
		if o.target != 0 && o.target != 1 {
			d.Fail("output %d target %v (want 0 or 1)", i, o.target)
			return eng
		}
		eng.outputs[i] = o
	}
	eng.constLoss = d.F64()
	if d.Err() == nil && (math.IsNaN(eng.constLoss) || math.IsInf(eng.constLoss, 0) || eng.constLoss < 0) {
		d.Fail("constant loss %v (want finite, >= 0)", eng.constLoss)
		return eng
	}
	raw := d.Take((eng.numInputs + 7) / 8)
	if d.Err() != nil {
		return eng
	}
	eng.liveIn = make([]bool, eng.numInputs)
	unpackBools(eng.liveIn, raw)
	eng.liveInList = codec.I32s[int32](d, "live input list")
	prev := int32(-1)
	for i, v := range eng.liveInList {
		if d.Err() == nil && (v <= prev || v >= int32(eng.numInputs) || !eng.liveIn[v]) {
			d.Fail("live input list entry %d is %d (want ascending live inputs)", i, v)
			return eng
		}
		prev = v
	}
	return eng
}

func decodeVerifyPlan(d *codec.Dec, c *circuit.Circuit) *bitblast.Program {
	unsat := d.U8() != 0
	ncl := d.Count(4, "verifier clauses")
	recs, total := d.Records(ncl, 0, 5, "verifier literals")
	if d.Err() != nil {
		return nil
	}
	lits := make([]bitblast.PlanLit, total)
	ends := make([]int32, ncl)
	off := 0
	for i := range ends {
		_, raw := recs.Next()
		for j := 0; j < len(raw); j += 5 {
			lits[off] = bitblast.PlanLit{Node: int32(binary.LittleEndian.Uint32(raw[j:])), Neg: raw[j+4] != 0}
			off++
		}
		ends[i] = int32(off)
	}
	prog, err := bitblast.FromPlan(c, lits, ends, unsat)
	if err != nil {
		d.Fail("%v", err)
		return nil
	}
	return prog
}
