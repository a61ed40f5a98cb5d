package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// solutionLine carries one verified solution as a 0/1 string over CNF
// variables 1..N: the NDJSON line appendSolutionLine writes directly.
type solutionLine struct {
	Type       string `json:"type"` // "solution"
	Assignment string `json:"assignment"`
}

// TestSolutionLineMatchesJSON pins the direct solution-line writer to the
// encoding/json bytes it replaced: for empty, one-variable and large
// assignments, appendSolutionLine must produce exactly what
// json.Encoder.Encode(solutionLine{...}) writes, including the newline.
// The reused buffer must not carry bytes over from a longer line.
func TestSolutionLineMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var line []byte
	for _, n := range []int{12000, 0, 1, 10000, 1} {
		sol := make([]bool, n)
		bits := make([]byte, n)
		for i := range sol {
			sol[i] = r.Intn(2) == 0
			bits[i] = '0'
			if sol[i] {
				bits[i] = '1'
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(solutionLine{Type: "solution", Assignment: string(bits)}); err != nil {
			t.Fatal(err)
		}
		line = appendSolutionLine(line[:0], sol)
		if !bytes.Equal(line, want.Bytes()) {
			t.Fatalf("%d vars: direct line %q differs from json.Encoder %q", n, abbrevBytes(line), abbrevBytes(want.Bytes()))
		}
	}
}

func abbrevBytes(b []byte) []byte {
	if len(b) > 80 {
		return append(append([]byte(nil), b[:80]...), "..."...)
	}
	return b
}
