package sampling

// Session checkpoints: the service-layer envelope over core snapshots.
//
// A core.Snapshot captures the sampler's exact GD/scheduler/pool state but
// restores only onto an already-compiled Problem. A service that restarts
// loses its compile cache, so the session checkpoint additionally embeds
// the DIMACS text of the formula itself: a checkpoint is self-contained —
// decode, recompile (through the Compiler's cache when warm, from the
// embedded text when cold), restore, and the stream continues at exactly
// the next undelivered solution.
//
// Envelope ("GDSC", framed by internal/codec with a SHA-256 trailer):
//
//	magic "GDSC" | u16 version | bytes name | u64 delivered | u32 stale
//	| bytes formula (DIMACS) | [v2: u32 byte length + i32 assumptions]
//	| bytes core snapshot | sha256 digest
//
// where bytes is a u32 length + payload. Version 1 is the
// assumption-free envelope; version 2 adds the session's assumption
// literals between the formula and the snapshot and is only written when
// the session's problem carries assumptions, so every unassumed
// checkpoint stays a version-1 envelope older readers accept. The
// trailing SHA-256 covers every preceding byte, so any truncation or
// flip — including inside the embedded core blob, which carries its own
// CRC — is rejected before any field is interpreted. Decoding never
// panics; every failure wraps ErrBadCheckpoint. Encoding is canonical:
// decode→encode is byte-identical.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/tensor"
)

// CheckpointVersion is the envelope format version this build writes for
// sessions over a specialized problem; assumption-free sessions encode as
// checkpointVersionBase for backward compatibility.
const CheckpointVersion = 2

// checkpointVersionBase is the assumption-free envelope version.
const checkpointVersionBase = 1

// ErrBadCheckpoint is wrapped by every checkpoint decode/restore failure:
// corrupt or truncated envelopes, version or digest mismatches, and
// restore attempts against the wrong problem.
var ErrBadCheckpoint = errors.New("sampling: bad checkpoint")

var checkpointFormat = codec.Format{
	Magic:      [4]byte{'G', 'D', 'S', 'C'},
	Trailer:    codec.SHA256,
	MinVersion: checkpointVersionBase,
	MaxVersion: CheckpointVersion,
	Err:        ErrBadCheckpoint,
}

// Checkpoint is a decoded session checkpoint: the formula, the core
// sampler snapshot, and the stream cursor. It is immutable once decoded.
type Checkpoint struct {
	name      string
	delivered int
	stale     int
	formula   *cnf.Formula
	assume    []cnf.Lit
	snap      *core.Snapshot
}

// Name returns the checkpointed session's name.
func (c *Checkpoint) Name() string { return c.name }

// Key returns the content hash identifying the compiled artifact this
// checkpoint belongs to: HashFormula of the embedded formula, folded with
// the assumption set when present (cnf.AssumeKey).
func (c *Checkpoint) Key() string { return c.snap.Key() }

// Assumptions returns the assumption literals the checkpointed session's
// problem was specialized under (nil for an unassumed session).
func (c *Checkpoint) Assumptions() []cnf.Lit {
	if len(c.assume) == 0 {
		return nil
	}
	return append([]cnf.Lit(nil), c.assume...)
}

// Delivered returns the stream cursor: how many solutions the session had
// already handed to its sink when the checkpoint was taken.
func (c *Checkpoint) Delivered() int { return c.delivered }

// Formula returns the embedded CNF. The caller must not mutate it — a
// restored session's compiled problem may share it.
func (c *Checkpoint) Formula() *cnf.Formula { return c.formula }

// Snapshot returns the embedded core sampler snapshot.
func (c *Checkpoint) Snapshot() *core.Snapshot { return c.snap }

// Checkpoint serializes the session's complete resumable state. The
// session must be quiescent (between Stream calls, or inside a cancelled
// one) — checkpointing a session whose Stream is running on another
// goroutine races with the scheduler. The returned bytes alias nothing:
// they stay valid however the session is used afterwards, and the
// session itself is untouched and continues exactly as if never
// checkpointed.
func (s *Session) Checkpoint() ([]byte, error) {
	blob, err := s.core.Snapshot().MarshalBinary()
	if err != nil {
		return nil, err
	}
	text := s.prob.formula.DIMACSString()
	assume := s.prob.core.Assumptions()
	version := uint16(checkpointVersionBase)
	if len(assume) > 0 {
		version = CheckpointVersion
	}
	e := checkpointFormat.Encoder(version, 36+len(s.name)+len(text)+4*len(assume)+len(blob))
	e.Bytes32([]byte(s.name))
	e.U64(uint64(s.delivered))
	e.U32(uint32(s.stale))
	e.Bytes32([]byte(text))
	if len(assume) > 0 {
		e.U32(uint32(4 * len(assume)))
		codec.AppendI32s(e, assume)
	}
	e.Bytes32(blob)
	return e.Seal(), nil
}

// DecodeCheckpoint parses and fully validates a checkpoint envelope: the
// digest, every field bound, the embedded formula (reparsed from its
// DIMACS text), the core snapshot, and the cross-checks tying them
// together (the formula's content hash must equal the snapshot's key; the
// delivered cursor must not exceed the snapshot's solution count). It
// never panics on arbitrary input, and it does not retain data — the
// returned Checkpoint owns all its memory.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	d, version, err := checkpointFormat.Open(data)
	if err != nil {
		return nil, err
	}
	name := d.Bytes32("session name")
	delivered := d.U64()
	stale := d.U32()
	text := d.Bytes32("formula")
	var assume []cnf.Lit
	if version == CheckpointVersion {
		if nb := d.Count(1, "assumption bytes"); nb == 0 || nb%4 != 0 {
			d.Fail("assumption block of %d bytes (want a non-empty multiple of 4)", nb)
		} else {
			assume = codec.TakeI32s[cnf.Lit](d, nb/4)
		}
	}
	blob := d.Bytes32("core snapshot")
	if err := d.Finish(); err != nil {
		return nil, err
	}
	// Resume tokens arrive over the network, so the embedded formula is
	// re-parsed under the same service-grade bounds submissions face —
	// anything the server admitted in the first place fits them.
	f, err := cnf.ParseDIMACSLimits(bytes.NewReader(text), cnf.DefaultParseLimits())
	if err != nil {
		return nil, fmt.Errorf("%w: embedded formula: %v", ErrBadCheckpoint, err)
	}
	// core.DecodeSnapshot aliases its input's pool section; copy the blob
	// so the Checkpoint owns all its memory and the caller may reuse or
	// discard data (the server decodes tokens out of a recycled spool).
	snap, err := core.DecodeSnapshot(append([]byte(nil), blob...))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := cnf.CheckAssumeKey(f.NumVars, HashFormula(f), assume, snap.Key()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if delivered > uint64(snap.UniqueCount()) {
		return nil, fmt.Errorf("%w: delivered cursor %d exceeds the snapshot's %d solutions", ErrBadCheckpoint, delivered, snap.UniqueCount())
	}
	if stale > 1<<20 {
		return nil, fmt.Errorf("%w: implausible stale counter %d", ErrBadCheckpoint, stale)
	}
	return &Checkpoint{
		name:      string(name),
		delivered: int(delivered),
		stale:     int(stale),
		formula:   f,
		assume:    assume,
		snap:      snap,
	}, nil
}

// RestoreSession rebuilds a session from a checkpoint on this problem,
// which must be the compiled form of the checkpoint's formula under its
// assumptions. It is the one restore path: callers obtain the problem
// with Compiler.CompileAssume(ck.Formula(), ck.Assumptions()) — a cache
// hit when warm, a compile of the embedded formula when cold — or, like
// the server, by looking the key up first. Streams are deterministic
// across devices, so any dev (a zero one runs sequentially) resumes the
// identical stream.
func (p *Problem) RestoreSession(ck *Checkpoint, dev tensor.Device) (*Session, error) {
	if ck == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrBadCheckpoint)
	}
	s, err := core.RestoreSamplerOn(p.core, ck.snap, dev)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return &Session{
		prob:      p,
		core:      s,
		name:      ck.name,
		roundMode: ck.snap.RoundMode(),
		delivered: ck.delivered,
		stale:     ck.stale,
		// Per-process driver accounting (Calls) restarts with the process.
		stats: Stats{Unique: s.UniqueCount()},
	}, nil
}
