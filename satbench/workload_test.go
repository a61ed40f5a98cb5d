package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// encodePlan serializes everything the server would receive for the first
// items of every client: set-up posts, then each leg's query and body.
func encodePlan(w *workload, items int) []byte {
	var b bytes.Buffer
	reqs := w.setupPosts()
	for c := 0; c < w.Clients; c++ {
		for j := w.firstItem(); j < items && j < w.numItems(c); j++ {
			reqs = append(reqs, w.item(c, j)...)
		}
	}
	for _, rq := range reqs {
		fmt.Fprintf(&b, "%d %d %s %s\n", rq.Client, rq.Item, rq.Leg, rq.query())
		if rq.Leg == legPost {
			b.Write(rq.Inst.Body)
		}
	}
	return b.Bytes()
}

func TestSeedDeterminesRequests(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			gen := func(seed int64) []byte {
				w, err := newWorkload(name, seed, 6)
				if err != nil {
					t.Fatal(err)
				}
				return encodePlan(w, 6)
			}
			a, b, c := gen(7), gen(7), gen(8)
			if !bytes.Equal(a, b) {
				t.Error("the same seed gave different request sequences")
			}
			if bytes.Equal(a, c) {
				t.Error("different seeds gave the same request sequence")
			}
		})
	}
}

// TestColdItems checks what cold-mix relies on: every posted body parses
// to the key the benchmark expects, keys are distinct, and each item's
// pins are satisfiable.
func TestColdItems(t *testing.T) {
	w, err := newWorkload(coldMix, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, items := range w.Pool {
		for _, it := range items {
			f, err := cnf.ParseDIMACS(bytes.NewReader(it.Body))
			if err != nil {
				t.Fatal(err)
			}
			if f.ContentHash() != it.Key {
				t.Errorf("%s: body hashes to %.12s, want %.12s", it.Name, f.ContentHash(), it.Key)
			}
			if seen[it.Key] {
				t.Errorf("%s: duplicate content hash", it.Name)
			}
			seen[it.Key] = true
			if len(it.Pins) != coldPins {
				t.Errorf("%s: %d pins, want %d", it.Name, len(it.Pins), coldPins)
			}
			if st := sat.NewSolver(f, sat.Options{}).SolveAssume(it.Pins...); st != sat.Sat {
				t.Errorf("%s: pins %v are not satisfiable (%v)", it.Name, it.Pins, st)
			}
		}
	}
}
