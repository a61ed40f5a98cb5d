package main

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// fig1 is the paper's Fig. 1 instance: 14 variables, exactly 32 models.
const fig1 = `p cnf 14 21
-1 -2 0
1 2 0
-2 3 0
2 -3 0
-3 4 0
3 -4 0
-4 -11 5 0
-4 11 -5 0
4 -12 5 0
4 12 -5 0
-6 7 0
6 -7 0
-7 8 0
7 -8 0
-8 -9 0
8 9 0
-9 -13 10 0
-9 13 -10 0
9 -14 10 0
9 14 -10 0
10 0
`

// TestOutputFileBytes runs the command end to end on a small formula and
// checks the -out file byte for byte against the same session's stream
// written one byte per variable through bufio — the line format the
// per-solution line buffer must reproduce exactly.
func TestOutputFileBytes(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "fig1.cnf"), filepath.Join(dir, "out.txt")
	if err := os.WriteFile(in, []byte(fig1), 0o644); err != nil {
		t.Fatal(err)
	}
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"satsample", "-in", in, "-out", out, "-n", "40", "-batch", "256", "-seed", "3", "-workers", "1"}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	f, err := cnf.ParseDIMACSString(fig1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sampling.CompileProblem(f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(sampling.SessionConfig{
		BatchSize: 256, Iterations: 5, LearningRate: 10, Seed: 3, Device: tensor.Sequential(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	bw := bufio.NewWriter(&want)
	if _, err := s.Stream(context.Background(), 40, func(sol []bool) error {
		for _, b := range sol {
			c := byte('0')
			if b {
				c = '1'
			}
			if err := bw.WriteByte(c); err != nil {
				return err
			}
		}
		return bw.WriteByte('\n')
	}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(got, []byte("\n")); lines != 32 {
		t.Fatalf("output has %d solutions, want all 32 models", lines)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("output file differs from the per-byte reference:\n%s\nwant:\n%s", got, want.Bytes())
	}
}
