package core

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/cnf"
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
// The format follows GDSS/GDSC: little-endian, length-prefixed sections,
// every length bounds-checked against the remaining input before
// allocation, and a SHA-256 trailer over all preceding bytes checked
// before any field parse — a torn or corrupted file is a clean error,
// never a panic (FuzzDecodeProblem guards this). Beyond the trailer,
// decode cross-checks the content address: the embedded formula must hash
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

// problemMagic opens every encoded problem.
var problemMagic = [4]byte{'G', 'D', 'S', 'P'}

// ErrBadProblem is wrapped by every problem decode failure, so the store
// layer can map "this blob is garbage" to a quarantine-and-miss without
// string matching.
var ErrBadProblem = errors.New("core: invalid problem encoding")

// problemTrailerLen is the length of the SHA-256 integrity trailer.
const problemTrailerLen = sha256.Size

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
	e := &snapEnc{buf: make([]byte, 0, est)}

	e.buf = append(e.buf, problemMagic[:]...)
	if len(p.assume) == 0 {
		e.u16(problemVersionBase)
		e.str(p.key)
	} else {
		e.u16(ProblemVersion)
		e.str(p.key)
		e.u32(uint32(len(p.assume)))
		raw := e.grow(4 * len(p.assume))
		for i, l := range p.assume {
			binary.LittleEndian.PutUint32(raw[4*i:], uint32(int32(l)))
		}
	}

	// Formula.
	e.u32(uint32(f.NumVars))
	e.u32(uint32(len(f.Clauses)))
	for _, cl := range f.Clauses {
		e.u32(uint32(len(cl)))
		raw := e.grow(4 * len(cl))
		for i, l := range cl {
			binary.LittleEndian.PutUint32(raw[4*i:], uint32(int32(l)))
		}
	}
	encInts(e, f.Projection)

	// Circuit. Names are not stored: input nodes rebuild theirs from Var.
	e.u32(uint32(len(c.Nodes)))
	for _, nd := range c.Nodes {
		e.u8(uint8(nd.Type))
		e.u8(b2u(nd.Val))
		e.u32(uint32(int32(nd.Var)))
		e.u32(uint32(len(nd.Fanin)))
		raw := e.grow(4 * len(nd.Fanin))
		for i, fid := range nd.Fanin {
			binary.LittleEndian.PutUint32(raw[4*i:], uint32(int32(fid)))
		}
	}
	e.u32(uint32(len(c.Inputs)))
	for _, id := range c.Inputs {
		e.u32(uint32(int32(id)))
	}
	e.u32(uint32(len(c.Outputs)))
	for _, o := range c.Outputs {
		e.u32(uint32(int32(o.Node)))
		e.u8(b2u(o.Target))
	}

	// Extraction (minus Bindings; see the file comment). NodeOf encodes
	// var-ascending so equal extractions produce identical bytes.
	encInts(e, ext.PrimaryInputs)
	encInts(e, ext.Intermediates)
	encInts(e, ext.PrimaryOutputs)
	e.u32(uint32(len(ext.NodeOf)))
	for _, v := range sortedVars(ext.NodeOf) {
		e.u32(uint32(int32(v)))
		e.u32(uint32(int32(ext.NodeOf[v])))
	}
	e.u32(uint32(len(ext.OutputSources)))
	for _, srcs := range ext.OutputSources {
		encInts(e, srcs)
	}
	e.u64(uint64(ext.TransformTime.Nanoseconds()))
	e.u32(uint32(ext.Windows))
	e.u32(uint32(ext.Fallbacks))
	e.u32(uint32(ext.SignatureHits))

	// Engine.
	e.u32(uint32(eng.numInputs))
	e.u32(uint32(eng.numSlots))
	e.u32(uint32(eng.numGregs))
	e.u32(uint32(len(eng.code)))
	for _, in := range eng.code {
		e.u8(uint8(in.op))
		raw := e.grow(24)
		binary.LittleEndian.PutUint32(raw[0:], uint32(in.dst))
		binary.LittleEndian.PutUint32(raw[4:], uint32(in.a))
		binary.LittleEndian.PutUint32(raw[8:], uint32(in.b))
		binary.LittleEndian.PutUint32(raw[12:], uint32(in.gd))
		binary.LittleEndian.PutUint32(raw[16:], uint32(in.ga))
		binary.LittleEndian.PutUint32(raw[20:], uint32(in.gb))
	}
	e.u32(uint32(len(eng.outputs)))
	for _, o := range eng.outputs {
		e.u32(uint32(o.slot))
		e.u32(uint32(o.greg))
		e.f32(o.target)
		e.u32(uint32(o.src))
	}
	e.f64(eng.constLoss)
	packed := e.grow((len(eng.liveIn) + 7) / 8)
	packBools(packed, eng.liveIn)
	e.i32s(eng.liveInList)

	// Verifier plan.
	plan, unsat := p.verify.Plan()
	e.u8(b2u(unsat))
	e.u32(uint32(len(plan)))
	for _, cl := range plan {
		e.u32(uint32(len(cl)))
		for _, l := range cl {
			e.u32(uint32(l.Node))
			e.u8(b2u(l.Neg))
		}
	}

	sum := sha256.Sum256(e.buf)
	e.buf = append(e.buf, sum[:]...)
	return e.buf, nil
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
	if len(data) < len(problemMagic)+2+problemTrailerLen {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrBadProblem, len(data))
	}
	if string(data[:4]) != string(problemMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadProblem)
	}
	body, tail := data[:len(data)-problemTrailerLen], data[len(data)-problemTrailerLen:]
	sum := sha256.Sum256(body)
	if subtle.ConstantTimeCompare(sum[:], tail) != 1 {
		return nil, fmt.Errorf("%w: integrity trailer mismatch (corrupted or truncated)", ErrBadProblem)
	}
	d := &snapDec{buf: body, off: 4, base: ErrBadProblem}
	ver := d.u16()
	if d.err == nil && ver != problemVersionBase && ver != ProblemVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads versions %d-%d)", ErrBadProblem, ver, problemVersionBase, ProblemVersion)
	}
	key := d.str()
	var assume []cnf.Lit
	if ver == ProblemVersion {
		na := d.count(4, "assumptions")
		raw := d.take(4 * na)
		if d.err != nil {
			return nil, d.err
		}
		if na == 0 {
			return nil, fmt.Errorf("%w: version %d blob with no assumptions (canonical form is version %d)", ErrBadProblem, ver, problemVersionBase)
		}
		assume = make([]cnf.Lit, na)
		for i := range assume {
			assume[i] = cnf.Lit(int32(binary.LittleEndian.Uint32(raw[4*i:])))
		}
	}

	f := decodeFormula(d)
	circ := decodeCircuit(d, f)
	ext := decodeExtraction(d, f, circ)
	eng := decodeEngine(d, circ)
	verify := decodeVerifyPlan(d, circ)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadProblem, len(body)-d.off)
	}
	// Assumptions must arrive in canonical, validated form — decode refuses
	// to "fix" a non-canonical set because the key cross-check below hashes
	// exactly what the writer canonicalized.
	if len(assume) > 0 {
		if err := cnf.ValidateAssumptions(f.NumVars, assume); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadProblem, err)
		}
		for i := 1; i < len(assume); i++ {
			if assume[i].Var() <= assume[i-1].Var() {
				return nil, fmt.Errorf("%w: assumption list not canonical at entry %d", ErrBadProblem, i)
			}
		}
	}
	// The content-address cross-check: the blob serves exactly the formula
	// (specialized under exactly the assumptions) its key names, or it
	// serves nothing. AssumeKey degenerates to the content hash when the
	// assumption set is empty, so one check covers both versions.
	if h := cnf.AssumeKey(f.ContentHash(), assume); h != key {
		return nil, fmt.Errorf("%w: embedded content hashes to %s, key says %s", ErrBadProblem, abbrev(h), abbrev(key))
	}

	p := &Problem{formula: f, ext: ext, eng: eng, verify: verify, key: key, assume: assume}
	// The tile and var→node table are derived state: recompute them
	// exactly as Compile does.
	p.derive()
	return p, nil
}

// encInts writes an int slice as a u32 count plus i32 values.
func encInts(e *snapEnc, vs []int) {
	e.u32(uint32(len(vs)))
	raw := e.grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(int32(v)))
	}
}

// decInts reads a u32 count plus i32 values into an int slice.
func decInts(d *snapDec, what string) []int {
	n := d.count(4, what)
	raw := d.take(4 * n)
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out
}

// sortedVars returns NodeOf's keys ascending (canonical encode order).
func sortedVars(m map[int]circuit.NodeID) []int {
	vars := make([]int, 0, len(m))
	for v := range m {
		vars = append(vars, v)
	}
	for i := 1; i < len(vars); i++ { // insertion sort: NodeOf is small-to-mid sized
		for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	return vars
}

func decodeFormula(d *snapDec) *cnf.Formula {
	nv := int(d.u32())
	if d.err == nil && (nv < 1 || nv > maxProblemDim) {
		d.fail("implausible variable count %d", nv)
	}
	ncl := d.count(4, "clauses")
	f := &cnf.Formula{NumVars: nv}
	f.Clauses = make([]cnf.Clause, 0, ncl)
	for i := 0; i < ncl; i++ {
		nl := d.count(4, "clause literals")
		raw := d.take(4 * nl)
		if d.err != nil {
			return f
		}
		cl := make(cnf.Clause, nl)
		for j := range cl {
			l := cnf.Lit(int32(binary.LittleEndian.Uint32(raw[4*j:])))
			if l == 0 || l.Var() > nv {
				d.fail("clause %d literal %d is %d over %d variables", i, j, l, nv)
				return f
			}
			cl[j] = l
		}
		f.Clauses = append(f.Clauses, cl)
	}
	proj := decInts(d, "projection")
	if d.err == nil && len(proj) > 0 {
		if err := cnf.ValidateProjection(nv, proj); err != nil {
			d.fail("%v", err)
			return f
		}
		f.Projection = proj
	}
	return f
}

func decodeCircuit(d *snapDec, f *cnf.Formula) *circuit.Circuit {
	nn := d.count(10, "circuit nodes")
	c := &circuit.Circuit{Nodes: make([]circuit.Node, 0, nn)}
	inputSeen := 0
	for id := 0; id < nn; id++ {
		t := circuit.GateType(d.u8())
		val := d.u8()
		v := int(int32(d.u32()))
		nf := d.count(4, "node fanins")
		raw := d.take(4 * nf)
		if d.err != nil {
			return c
		}
		if t > circuit.Xnor {
			d.fail("node %d has unknown gate type %d", id, t)
			return c
		}
		switch t {
		case circuit.Input, circuit.Const:
			if nf != 0 {
				d.fail("node %d: %v with %d fanins", id, t, nf)
				return c
			}
		case circuit.Buf, circuit.Not:
			if nf != 1 {
				d.fail("node %d: %v with %d fanins", id, t, nf)
				return c
			}
		default:
			if nf < 2 {
				d.fail("node %d: %v with %d fanins", id, t, nf)
				return c
			}
		}
		if v < 0 || v > f.NumVars {
			d.fail("node %d claims CNF variable %d of %d", id, v, f.NumVars)
			return c
		}
		nd := circuit.Node{Type: t, Val: val != 0, Var: v}
		if nf > 0 {
			nd.Fanin = make([]circuit.NodeID, nf)
			for i := range nd.Fanin {
				fid := int32(binary.LittleEndian.Uint32(raw[4*i:]))
				if fid < 0 || fid >= int32(id) {
					d.fail("node %d fanin %d is %d (topological order violated)", id, i, fid)
					return c
				}
				nd.Fanin[i] = circuit.NodeID(fid)
			}
		}
		if t == circuit.Input {
			inputSeen++
			if v > 0 {
				nd.Name = fmt.Sprintf("x%d", v)
			}
		}
		c.Nodes = append(c.Nodes, nd)
	}
	nin := d.count(4, "circuit inputs")
	if d.err == nil && nin != inputSeen {
		d.fail("input list has %d entries for %d input nodes", nin, inputSeen)
	}
	if d.err != nil {
		return c
	}
	c.Inputs = make([]circuit.NodeID, nin)
	seen := make([]bool, len(c.Nodes))
	for i := range c.Inputs {
		id := int32(d.u32())
		if d.err != nil {
			return c
		}
		if id < 0 || int(id) >= len(c.Nodes) || c.Nodes[id].Type != circuit.Input || seen[id] {
			d.fail("input %d is node %d (missing, non-input, or repeated)", i, id)
			return c
		}
		seen[id] = true
		c.Inputs[i] = circuit.NodeID(id)
	}
	nout := d.count(5, "circuit outputs")
	if d.err != nil {
		return c
	}
	c.Outputs = make([]circuit.Output, nout)
	for i := range c.Outputs {
		id := int32(d.u32())
		target := d.u8()
		if d.err != nil {
			return c
		}
		if id < 0 || int(id) >= len(c.Nodes) {
			d.fail("output %d references node %d of %d", i, id, len(c.Nodes))
			return c
		}
		c.Outputs[i] = circuit.Output{Node: circuit.NodeID(id), Target: target != 0}
	}
	return c
}

func decodeExtraction(d *snapDec, f *cnf.Formula, c *circuit.Circuit) *extract.Result {
	ext := &extract.Result{Circuit: c}
	checkVars := func(vs []int, what string) {
		for _, v := range vs {
			if d.err == nil && (v < 1 || v > f.NumVars) {
				d.fail("%s variable %d of %d", what, v, f.NumVars)
			}
		}
	}
	ext.PrimaryInputs = decInts(d, "primary inputs")
	checkVars(ext.PrimaryInputs, "primary input")
	ext.Intermediates = decInts(d, "intermediates")
	checkVars(ext.Intermediates, "intermediate")
	ext.PrimaryOutputs = decInts(d, "primary outputs")
	checkVars(ext.PrimaryOutputs, "primary output")
	if d.err != nil {
		return ext
	}
	nmap := d.count(8, "node map")
	raw := d.take(8 * nmap)
	if d.err != nil {
		return ext
	}
	ext.NodeOf = make(map[int]circuit.NodeID, nmap)
	prev := 0
	for i := 0; i < nmap; i++ {
		v := int(int32(binary.LittleEndian.Uint32(raw[8*i:])))
		id := int32(binary.LittleEndian.Uint32(raw[8*i+4:]))
		if v <= prev || v > f.NumVars {
			d.fail("node map entry %d: variable %d (want ascending, <= %d)", i, v, f.NumVars)
			return ext
		}
		if id < 0 || int(id) >= len(c.Nodes) {
			d.fail("node map entry %d: node %d of %d", i, id, len(c.Nodes))
			return ext
		}
		ext.NodeOf[v] = circuit.NodeID(id)
		prev = v
	}
	nsrc := d.count(4, "output provenance")
	if d.err == nil && nsrc != len(c.Outputs) {
		d.fail("provenance for %d outputs, circuit has %d", nsrc, len(c.Outputs))
	}
	if d.err != nil {
		return ext
	}
	ext.OutputSources = make([][]int, nsrc)
	for i := range ext.OutputSources {
		srcs := decInts(d, "provenance clauses")
		for _, ci := range srcs {
			if d.err == nil && (ci < 0 || ci >= len(f.Clauses)) {
				d.fail("provenance clause %d of %d", ci, len(f.Clauses))
			}
		}
		if d.err != nil {
			return ext
		}
		ext.OutputSources[i] = srcs
	}
	ext.TransformTime = time.Duration(d.u64())
	ext.Windows = int(d.u32())
	ext.Fallbacks = int(d.u32())
	ext.SignatureHits = int(d.u32())
	return ext
}

func decodeEngine(d *snapDec, c *circuit.Circuit) *engine {
	eng := &engine{
		numInputs: int(d.u32()),
		numSlots:  int(d.u32()),
		numGregs:  int(d.u32()),
	}
	if d.err != nil {
		return eng
	}
	if eng.numInputs != len(c.Inputs) || eng.numInputs < 1 {
		d.fail("engine has %d inputs, circuit has %d", eng.numInputs, len(c.Inputs))
		return eng
	}
	if eng.numSlots < eng.numInputs || eng.numSlots > maxProblemDim ||
		eng.numGregs < eng.numInputs || eng.numGregs > maxProblemDim {
		d.fail("implausible engine shape slots=%d gregs=%d inputs=%d", eng.numSlots, eng.numGregs, eng.numInputs)
		return eng
	}
	ncode := d.count(25, "engine code")
	if d.err != nil {
		return eng
	}
	eng.code = make([]einstr, ncode)
	for i := range eng.code {
		op := eop(d.u8())
		raw := d.take(24)
		if d.err != nil {
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
			d.fail("instruction %d has unknown op %d", i, op)
			return eng
		}
		ns, ng, ni := int32(eng.numSlots), int32(eng.numGregs), int32(eng.numInputs)
		if in.dst < ni || in.dst >= ns || in.a < 0 || in.a >= ns || in.b < 0 || in.b >= ns {
			d.fail("instruction %d slots out of range (dst=%d a=%d b=%d over %d)", i, in.dst, in.a, in.b, ns)
			return eng
		}
		if in.gd < 0 || in.gd >= ng || in.ga < 0 || in.ga >= ng || in.gb < 0 || in.gb >= ng {
			d.fail("instruction %d registers out of range (gd=%d ga=%d gb=%d over %d)", i, in.gd, in.ga, in.gb, ng)
			return eng
		}
		eng.code[i] = in
	}
	nouts := d.count(16, "engine outputs")
	if d.err != nil {
		return eng
	}
	eng.outputs = make([]eout, nouts)
	for i := range eng.outputs {
		o := eout{
			slot:   int32(d.u32()),
			greg:   int32(d.u32()),
			target: d.f32(),
			src:    int32(d.u32()),
		}
		if d.err != nil {
			return eng
		}
		if o.slot < 0 || o.slot >= int32(eng.numSlots) || o.greg < 0 || o.greg >= int32(eng.numGregs) {
			d.fail("output %d slot/register out of range (slot=%d greg=%d)", i, o.slot, o.greg)
			return eng
		}
		if o.src < 0 || o.src >= int32(len(c.Outputs)) {
			d.fail("output %d provenance index %d of %d", i, o.src, len(c.Outputs))
			return eng
		}
		if o.target != 0 && o.target != 1 {
			d.fail("output %d target %v (want 0 or 1)", i, o.target)
			return eng
		}
		eng.outputs[i] = o
	}
	eng.constLoss = d.f64()
	if d.err == nil && (math.IsNaN(eng.constLoss) || math.IsInf(eng.constLoss, 0) || eng.constLoss < 0) {
		d.fail("constant loss %v (want finite, >= 0)", eng.constLoss)
		return eng
	}
	raw := d.take((eng.numInputs + 7) / 8)
	if d.err != nil {
		return eng
	}
	eng.liveIn = make([]bool, eng.numInputs)
	unpackBools(eng.liveIn, raw)
	eng.liveInList = d.i32s("live input list")
	prev := int32(-1)
	for i, v := range eng.liveInList {
		if d.err == nil && (v <= prev || v >= int32(eng.numInputs) || !eng.liveIn[v]) {
			d.fail("live input list entry %d is %d (want ascending live inputs)", i, v)
			return eng
		}
		prev = v
	}
	return eng
}

func decodeVerifyPlan(d *snapDec, c *circuit.Circuit) *bitblast.Program {
	unsat := d.u8() != 0
	ncl := d.count(4, "verifier clauses")
	if d.err != nil {
		return nil
	}
	plan := make([][]bitblast.PlanLit, ncl)
	for i := range plan {
		nl := d.count(5, "verifier literals")
		if d.err != nil {
			return nil
		}
		cl := make([]bitblast.PlanLit, nl)
		for j := range cl {
			cl[j] = bitblast.PlanLit{Node: int32(d.u32()), Neg: d.u8() != 0}
		}
		if d.err != nil {
			return nil
		}
		plan[i] = cl
	}
	prog, err := bitblast.FromPlan(c, plan, unsat)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	return prog
}
