package extract_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/extract"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/gdsp.sha256 from the current build")

const digestFile = "testdata/gdsp.sha256"

// gdspBytes transforms f and returns the GDSP encoding of the compiled
// problem with TransformTime zeroed: the wall-clock duration is the one
// run-dependent field GDSP stores.
func gdspBytes(t testing.TB, f *cnf.Formula) ([]byte, *extract.Result) {
	t.Helper()
	ext, err := extract.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	ext.TransformTime = 0
	p, err := core.Compile(f, ext)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob, ext
}

type digestCase struct {
	name  string
	f     *cnf.Formula
	large bool // a Fig. 4 / Table II row: skipped under -short
}

// digestCases lists every formula whose GDSP digest is pinned: the small
// and quality suites, 24 seeded cold-mix-shaped bodies, the Fig. 4 rows
// and the remaining Table II rows.
func digestCases() []digestCase {
	var cs []digestCase
	for _, in := range benchgen.SmallSuite() {
		cs = append(cs, digestCase{"small/" + in.Name, in.Formula, false})
	}
	for _, in := range benchgen.QualitySuite() {
		cs = append(cs, digestCase{"quality/" + in.Name, in.Formula, false})
	}
	for i, f := range coldMixBodies(24, 77) {
		cs = append(cs, digestCase{fmt.Sprintf("cold/%d", i), f, false})
	}
	fig4 := map[string]bool{}
	for _, in := range benchgen.Fig4Instances() {
		fig4[in.Name] = true
		cs = append(cs, digestCase{"fig4/" + in.Name, in.Formula, true})
	}
	for _, in := range benchgen.Table2Instances() {
		if !fig4[in.Name] {
			cs = append(cs, digestCase{"table2/" + in.Name, in.Formula, true})
		}
	}
	return cs
}

// TestGDSPDigests is the proof that a change to Algorithm 1 keeps its
// output: every pinned formula must compile to the same GDSP bytes as
// when testdata/gdsp.sha256 was recorded. Regenerate that file only for a
// change meant to alter the circuit:
//
//	go test ./internal/extract -run TestGDSPDigests -args -update-digests
func TestGDSPDigests(t *testing.T) {
	want := map[string]string{}
	if !*updateDigests {
		data, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			sum, name, ok := strings.Cut(sc.Text(), "  ")
			if !ok {
				t.Fatalf("malformed digest line %q", sc.Text())
			}
			want[name] = sum
		}
	}
	var out strings.Builder
	for _, c := range digestCases() {
		if c.large && testing.Short() && !*updateDigests {
			continue
		}
		blob, _ := gdspBytes(t, c.f)
		sum := sha256.Sum256(blob)
		got := hex.EncodeToString(sum[:])
		fmt.Fprintf(&out, "%s  %s\n", got, c.name)
		if *updateDigests {
			continue
		}
		switch w, ok := want[c.name]; {
		case !ok:
			t.Errorf("%s: no committed digest", c.name)
		case w != got:
			t.Errorf("%s: GDSP digest %s, committed %s", c.name, got, w)
		}
	}
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTransformDeterministic: the same CNF must compile to the same
// circuit and the same GDSP bytes on every run (gate operands follow
// clause order, never map order).
func TestTransformDeterministic(t *testing.T) {
	fs := coldMixBodies(2, 5)
	for _, in := range benchgen.SmallSuite() {
		fs = append(fs, in.Formula)
	}
	for i, f := range fs {
		blob1, r1 := gdspBytes(t, f)
		blob2, r2 := gdspBytes(t, f)
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("formula %d: two transforms differ", i)
		}
		if !bytes.Equal(blob1, blob2) {
			t.Errorf("formula %d: GDSP bytes differ between runs", i)
		}
	}
}
