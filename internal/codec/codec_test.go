package codec

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

var errTest = errors.New("test: bad blob")

func testFormat(t Trailer) *Format {
	return &Format{Magic: [4]byte{'T', 'E', 'S', 'T'}, Trailer: t, MinVersion: 1, MaxVersion: 2, Err: errTest}
}

func TestRoundTrip(t *testing.T) {
	for _, tr := range []Trailer{CRC32, SHA256} {
		f := testFormat(tr)
		e := f.Encoder(2, 0)
		e.Str("key")
		e.Bytes32([]byte("payload"))
		e.U64(1 << 40)
		e.F32s([]float32{1.5, -2})
		e.U64s([]uint64{7, 1 << 63})
		PutI32s(e, []int{-3, 0, 1 << 30})
		PutI32s(e, []uint32{1<<32 - 1})
		blob := e.Seal()
		if len(blob) != 6+3+2+4+7+8+4+8+4+16+4+12+4+4+tr.size() {
			t.Fatalf("trailer %d: %d bytes", tr, len(blob))
		}

		d, v, err := f.Open(blob)
		if err != nil || v != 2 {
			t.Fatalf("open: v=%d err=%v", v, err)
		}
		if d.Str() != "key" || string(d.Bytes32("payload")) != "payload" || d.U64() != 1<<40 {
			t.Fatal("scalar fields did not round-trip")
		}
		if fs := d.F32s("f32s"); len(fs) != 2 || fs[0] != 1.5 || fs[1] != -2 {
			t.Fatalf("f32s = %v", fs)
		}
		if us := d.U64s("u64s"); len(us) != 2 || us[1] != 1<<63 {
			t.Fatalf("u64s = %v", us)
		}
		if is := I32s[int](d, "ints"); len(is) != 3 || is[0] != -3 || is[2] != 1<<30 {
			t.Fatalf("ints = %v", is)
		}
		if us := I32s[uint32](d, "u32s"); len(us) != 1 || us[0] != 1<<32-1 {
			t.Fatalf("u32s = %v", us)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenRejects(t *testing.T) {
	f := testFormat(SHA256)
	good := f.Encoder(1, 0).Seal()
	reseal := func(body []byte) []byte {
		e := &Enc{buf: append([]byte(nil), body...), trailer: SHA256}
		return e.Seal()
	}
	cases := map[string][]byte{
		"empty":     nil,
		"short":     good[:len(good)-1],
		"magic":     reseal(append([]byte("JUNK"), good[4:6]...)),
		"trailer":   append(append([]byte(nil), good[:len(good)-1]...), good[len(good)-1]^1),
		"version 0": reseal([]byte{'T', 'E', 'S', 'T', 0, 0}),
		"version 3": reseal([]byte{'T', 'E', 'S', 'T', 3, 0}),
	}
	for name, data := range cases {
		if _, _, err := f.Open(data); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the format sentinel", name, err)
		}
	}
	if _, _, err := f.Open(good); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
}

func TestDecoderIsStickyAndBounded(t *testing.T) {
	f := testFormat(CRC32)
	e := f.Encoder(1, 0)
	e.U32(1 << 30) // a count far past the remaining input
	e.U32(5)
	d, _, err := f.Open(e.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if vs := d.U64s("huge"); vs != nil || !errors.Is(d.Err(), errTest) {
		t.Fatalf("forged count: vs=%v err=%v", vs, d.Err())
	}
	first := d.Err()
	if d.U32() != 0 || d.Take(1) != nil || d.Finish() != first {
		t.Fatal("reads after a failure must return zero and keep the first error")
	}

	e = f.Encoder(1, 0)
	e.U8(1)
	d, _, _ = f.Open(e.Seal())
	if err := d.Finish(); !errors.Is(err, errTest) || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("unread byte: err = %v", err)
	}
}

// TestRecords: Dec.Records checks a run of count-prefixed records in one
// pass and reports their total element count, Next hands back each
// record's fixed fields and elements in order, and a forged count fails
// the decoder with no records returned.
func TestRecords(t *testing.T) {
	f := testFormat(CRC32)
	lists := [][]int32{{1, -2}, nil, {3, 4, 5}}
	e := f.Encoder(1, 0)
	for i, l := range lists {
		e.U8(uint8(i)) // one byte of fixed fields per record
		PutI32s(e, l)
	}
	e.U8(99)
	d, _, err := f.Open(e.Seal())
	if err != nil {
		t.Fatal(err)
	}
	recs, total := d.Records(len(lists), 1, 4, "lists")
	if total != 5 || d.Err() != nil {
		t.Fatalf("Records total = %d, err %v; want 5", total, d.Err())
	}
	all := make([]int32, total)
	for i, l := range lists {
		head, raw := recs.Next()
		if len(head) != 1 || head[0] != uint8(i) {
			t.Fatalf("record %d head = %v", i, head)
		}
		got := Words(all[:len(raw)/4], raw)
		all = all[len(got):]
		if !slices.Equal(got, l) {
			t.Fatalf("record %d = %v, want %v", i, got, l)
		}
	}
	if head, raw := recs.Next(); head != nil || raw != nil {
		t.Fatal("Next past the last record returned data")
	}
	if d.U8() != 99 || d.Finish() != nil {
		t.Fatal("Records did not consume exactly its records")
	}

	e = f.Encoder(1, 0)
	e.U32(1 << 30)
	d, _, _ = f.Open(e.Seal())
	recs, total = d.Records(1, 0, 4, "forged")
	if total != 0 || !errors.Is(d.Err(), errTest) {
		t.Fatalf("forged count: total %d, err %v", total, d.Err())
	}
	if head, raw := recs.Next(); head != nil || raw != nil {
		t.Fatal("failed Records returned a record")
	}
}
