// Package codec is the one binary framing under the repository's durable
// artifacts (GDSS sampler snapshots, GDSP compiled problems, GDSC session
// checkpoints): magic, u16 version, little-endian body, and an integrity
// trailer over every preceding byte whose type is fixed per format. Open
// validates the frame before any body field is read and returns a sticky,
// bounds-checked decoder, so malformed input is a clean error wrapping
// the format's sentinel, never a panic or a huge allocation. DESIGN.md
// ("One framing") documents the layout.
package codec

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Trailer selects a format's integrity trailer.
type Trailer int

const (
	CRC32  Trailer = iota // 4-byte IEEE CRC-32, little-endian
	SHA256                // 32-byte SHA-256 digest
)

func (t Trailer) size() int {
	if t == CRC32 {
		return crc32.Size
	}
	return sha256.Size
}

func (t Trailer) sum(dst, body []byte) []byte {
	if t == CRC32 {
		return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	}
	s := sha256.Sum256(body)
	return append(dst, s[:]...)
}

// Verifies reports whether data ends in a trailer of this type over its
// preceding bytes, with one constant-time compare.
func (t Trailer) Verifies(data []byte) bool {
	ts := t.size()
	if len(data) <= ts {
		return false
	}
	var want [sha256.Size]byte
	body := data[:len(data)-ts]
	return subtle.ConstantTimeCompare(t.sum(want[:0], body), data[len(data)-ts:]) == 1
}

// Format describes one artifact's frame.
type Format struct {
	Magic      [4]byte
	Trailer    Trailer
	MinVersion uint16 // oldest version Open accepts
	MaxVersion uint16 // newest version Open accepts
	Err        error  // sentinel every failure wraps
}

// Encoder starts a blob of this format: magic and version, with sizeHint
// bytes of capacity reserved for the body.
func (f *Format) Encoder(version uint16, sizeHint int) *Enc {
	e := &Enc{buf: make([]byte, 0, 6+sizeHint+f.Trailer.size()), trailer: f.Trailer}
	e.buf = append(e.buf, f.Magic[:]...)
	e.U16(version)
	return e
}

// Open validates data's frame and returns a decoder over its body,
// positioned after the version, plus the version read. The decoder
// aliases data.
func (f *Format) Open(data []byte) (*Dec, uint16, error) {
	ts := f.Trailer.size()
	if len(data) < len(f.Magic)+2+ts {
		return nil, 0, fmt.Errorf("%w: %d bytes is too short", f.Err, len(data))
	}
	if !bytes.Equal(data[:4], f.Magic[:]) {
		return nil, 0, fmt.Errorf("%w: bad magic", f.Err)
	}
	if !f.Trailer.Verifies(data) {
		return nil, 0, fmt.Errorf("%w: integrity trailer mismatch (corrupted or truncated)", f.Err)
	}
	body := data[:len(data)-ts]
	v := binary.LittleEndian.Uint16(body[4:])
	if v < f.MinVersion || v > f.MaxVersion {
		return nil, 0, fmt.Errorf("%w: version %d (this build reads versions %d-%d)", f.Err, v, f.MinVersion, f.MaxVersion)
	}
	return &Dec{buf: body, off: 6, base: f.Err}, v, nil
}

// Enc is an append encoder. Bulk array sections reserve their bytes in
// one Grow and fill in place, so encoding cost is bounded by memory
// bandwidth, not per-element append overhead.
type Enc struct {
	buf     []byte
	trailer Trailer
}

func (e *Enc) U8(v uint8)    { e.buf = append(e.buf, v) }
func (e *Enc) U16(v uint16)  { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *Enc) U32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Enc) U64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Enc) F32(v float32) { e.U32(math.Float32bits(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str writes a u16 length and the string's bytes.
func (e *Enc) Str(s string) {
	e.U16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes32 writes a u32 length and the payload.
func (e *Enc) Bytes32(p []byte) {
	e.U32(uint32(len(p)))
	e.buf = append(e.buf, p...)
}

// Grow reserves n bytes at the end of the buffer and returns them for
// in-place filling; the caller must overwrite all of them.
func (e *Enc) Grow(n int) []byte {
	off := len(e.buf)
	if cap(e.buf)-off < n {
		e.buf = append(e.buf, make([]byte, n)...)
	} else {
		e.buf = e.buf[:off+n]
	}
	return e.buf[off : off+n]
}

// F32s writes a u32 count and the values.
func (e *Enc) F32s(vs []float32) {
	e.U32(uint32(len(vs)))
	raw := e.Grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
}

// U64s writes a u32 count and the values.
func (e *Enc) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	raw := e.Grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(raw[8*i:], v)
	}
}

// Seal appends the format's integrity trailer over everything written so
// far and returns the finished blob.
func (e *Enc) Seal() []byte {
	e.buf = e.trailer.sum(e.buf, e.buf)
	return e.buf
}

// Int32 is the set of integer types stored as 32-bit words. Values are
// truncated to 32 bits on write and sign-extended from an int32 on read,
// so any value that fits round-trips.
type Int32 interface {
	~int | ~int32 | ~uint32
}

// PutI32s writes a u32 count and the values as 32-bit words.
func PutI32s[T Int32](e *Enc, vs []T) {
	e.U32(uint32(len(vs)))
	AppendI32s(e, vs)
}

// AppendI32s writes the values as 32-bit words, without a count.
func AppendI32s[T Int32](e *Enc, vs []T) {
	raw := e.Grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(int32(v)))
	}
}

// Dec is the sticky, bounds-checked decoder Open returns.
type Dec struct {
	buf  []byte
	off  int
	err  error
	base error
}

// Err returns the first failure, or nil.
func (d *Dec) Err() error { return d.err }

// Fail records a failure wrapping the format's sentinel; only the first
// failure is kept.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{d.base}, args...)...)
	}
}

// Finish returns the first failure, or an error when body bytes remain
// unread.
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Fail("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

// Take returns the next n bytes (aliasing the input), or nil on failure.
func (d *Dec) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.Fail("truncated at offset %d (want %d more bytes)", d.off, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Dec) U8() uint8 {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Dec) U16() uint16 {
	b := d.Take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *Dec) U32() uint32 {
	b := d.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *Dec) U64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *Dec) F32() float32 { return math.Float32frombits(d.U32()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a u16 length and that many bytes as a string.
func (d *Dec) Str() string { return string(d.Take(int(d.U16()))) }

// Bytes32 reads a u32 length and that many bytes (aliasing the input).
func (d *Dec) Bytes32(what string) []byte { return d.Take(d.Count(1, what)) }

// Count reads a u32 element count and checks that count × elemBytes more
// input actually exists before the caller allocates for it: a corrupted
// length field must produce an error, not a multi-gigabyte allocation.
func (d *Dec) Count(elemBytes int, what string) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n > (len(d.buf)-d.off)/elemBytes {
		d.Fail("%s count %d exceeds remaining input", what, n)
		return 0
	}
	return n
}

// F32s reads a u32 count and the values.
func (d *Dec) F32s(what string) []float32 {
	n := d.Count(4, what)
	raw := d.Take(4 * n)
	if d.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// U64s reads a u32 count and the values.
func (d *Dec) U64s(what string) []uint64 {
	n := d.Count(8, what)
	raw := d.Take(8 * n)
	if d.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return out
}

// I32s reads a u32 count and that many 32-bit words.
func I32s[T Int32](d *Dec, what string) []T {
	return TakeI32s[T](d, d.Count(4, what))
}

// TakeI32s reads n 32-bit words (the caller has bounded n).
func TakeI32s[T Int32](d *Dec, n int) []T {
	raw := d.Take(4 * n)
	if d.err != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out
}
