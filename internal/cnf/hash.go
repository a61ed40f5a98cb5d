package cnf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// ContentHash returns the formula's content hash — the identity under
// which its compiled artifact is cached, and the key a session snapshot
// carries so a checkpoint can only restore onto the identical compiled
// problem. The hash covers the variable count and the exact clause/literal
// sequence (the transformation is order-sensitive, so two formulas that
// differ only in clause order are genuinely different compilation inputs),
// plus the declared projection: a formula's sampling set is part of its
// identity (sessions inherit it by default), so two inputs that differ
// only in their "c ind" lines must not share an identity. The projection
// suffix is only written when non-empty, which keeps every unprojected
// formula's hash unchanged and cannot collide — the clause section's
// length is fully determined by its leading counts.
func (f *Formula) ContentHash() string {
	// Varints are batched into one buffer so the digest sees a few large
	// writes instead of one per literal; the hashed byte stream is the same.
	h := sha256.New()
	const flushAt = 32 << 10
	buf := make([]byte, 0, flushAt+binary.MaxVarintLen64)
	writeInt := func(v int64) {
		buf = binary.AppendVarint(buf, v)
		if len(buf) >= flushAt {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	writeInt(int64(f.NumVars))
	writeInt(int64(len(f.Clauses)))
	for _, c := range f.Clauses {
		writeInt(int64(len(c)))
		for _, l := range c {
			writeInt(int64(l))
		}
	}
	if len(f.Projection) > 0 {
		writeInt(int64(len(f.Projection)))
		for _, v := range f.Projection {
			writeInt(int64(v))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
