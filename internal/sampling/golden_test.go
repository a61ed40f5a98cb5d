package sampling

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// TestCheckpointGoldenBytes pins the on-disk GDSC format. The envelopes
// under testdata/golden were written by an earlier build (fixed seeds,
// sequential device): v1 for a continuous, a round-mode and a projected
// session, v2 for a session over a specialized problem. Each must decode,
// restore through the compiler (CompileAssume, then RestoreSession) and
// checkpoint again to the identical bytes.
func TestCheckpointGoldenBytes(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "gdsc_*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden envelopes: %v", err)
	}
	comp := NewCompiler(4)
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := DecodeCheckpoint(want)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := resumeVia(comp, ck, tensor.Device{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restore + checkpoint changed the bytes (%d -> %d bytes)", len(want), len(got))
			}
		})
	}
}
