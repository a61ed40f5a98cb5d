package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCodecGoldenBytes pins the on-disk GDSS and GDSP formats. The blobs
// under testdata/golden were written by an earlier build (fixed seeds,
// sequential device): GDSS v1 for a continuous session with projection
// and momentum and for a round-mode session, GDSP v1 for a projected
// problem and GDSP v2 for a specialized one. Each must decode and
// re-encode to the identical bytes. Self-consistency round trips cannot
// catch a change made to encoder and decoder together; this test can.
func TestCodecGoldenBytes(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden blobs: %v", err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			switch magic := string(want[:4]); magic {
			case "GDSS":
				sn, err := DecodeSnapshot(want)
				if err != nil {
					t.Fatal(err)
				}
				got, err = sn.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
			case "GDSP":
				p, err := DecodeProblem(want)
				if err != nil {
					t.Fatal(err)
				}
				got, err = p.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
			default:
				t.Fatalf("unknown magic %q", magic)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("re-encoding changed the bytes (%d -> %d bytes)", len(want), len(got))
			}
		})
	}
}
