package extract_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/extract"
)

// coldMixBodies generates n formulas shaped like the satbench cold-mix
// workload's fresh bodies: small Iscas netlists (140–179 inputs,
// 1800–2199 gates, 3 outputs) and Prod networks (56–71 inputs, 28–35
// copies), alternating at random. Deterministic in seed.
func coldMixBodies(n int, seed int64) []*cnf.Formula {
	r := rand.New(rand.NewSource(seed))
	out := make([]*cnf.Formula, n)
	for i := range out {
		name := fmt.Sprintf("cold-%d", i)
		if r.Intn(2) == 0 {
			out[i] = benchgen.Iscas(name, 140+r.Intn(40), 1800+r.Intn(400), 3, r.Int63()).Formula
		} else {
			out[i] = benchgen.Prod(name, 56+r.Intn(16), 28+r.Intn(8), r.Int63()).Formula
		}
	}
	return out
}

// BenchmarkTransform times Algorithm 1 on the bodies a cold compile sees:
// a set of cold-mix-shaped formulas (one op transforms all of them) and,
// one sub-benchmark each, the Table II instances compiled in the warm
// workloads' set-up.
func BenchmarkTransform(b *testing.B) {
	type bench struct {
		name string
		fs   []*cnf.Formula
	}
	benches := []bench{{"cold-mix", coldMixBodies(8, 931)}}
	for _, in := range benchgen.Table2Instances() {
		switch in.Name {
		case "s15850a_3_2", "Prod-8", "or-100-20-8-UC-10":
			benches = append(benches, bench{in.Name, []*cnf.Formula{in.Formula}})
		}
	}
	for _, bc := range benches {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, f := range bc.fs {
					if _, err := extract.Transform(f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
