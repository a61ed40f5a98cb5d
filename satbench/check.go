package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cnf"
)

// checkOutputs re-checks every delivered solution after the timed window,
// independently of the server's bitblast verifier: each assignment must
// satisfy the posted formula (cnf.Formula.Sat), be distinct within its
// request, honour the request's pins, and the count must equal the target
// unless the done line says exhausted. Violations land in each result's
// Bad list. Results are grouped by formula so each is parsed once, and
// checked on GOMAXPROCS goroutines.
func checkOutputs(res []*result) {
	byInst := map[*instance][]*result{}
	var order []*instance
	for _, r := range res {
		if r.Status != 200 {
			continue
		}
		if _, ok := byInst[r.Req.Inst]; !ok {
			order = append(order, r.Req.Inst)
		}
		byInst[r.Req.Inst] = append(byInst[r.Req.Inst], r)
	}
	work := make(chan *instance)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for in := range work {
				f, err := cnf.ParseDIMACS(bytes.NewReader(in.Body))
				for _, r := range byInst[in] {
					if err != nil {
						r.Bad = append(r.Bad, "posted body does not parse: "+err.Error())
						continue
					}
					checkResult(f, r)
				}
			}
		}()
	}
	for _, in := range order {
		work <- in
	}
	close(work)
	wg.Wait()
}

func checkResult(f *cnf.Formula, r *result) {
	bad := func(format string, args ...any) { r.Bad = append(r.Bad, fmt.Sprintf(format, args...)) }
	want := r.Req.Inst.Key
	if len(r.Req.Assume) > 0 {
		want = cnf.AssumeKey(want, r.Req.Assume)
	}
	if r.Meta.Key != want {
		bad("meta key %.12s, want %.12s", r.Meta.Key, want)
	}
	if r.Done == nil {
		return // already an error: no done line
	}
	if r.NumSols != r.Done.Delivered {
		bad("%d solution lines but done says %d delivered", r.NumSols, r.Done.Delivered)
	}
	if r.NumSols != r.Req.Target && !(r.Done.Exhausted && r.NumSols < r.Req.Target) {
		bad("%d solutions for target %d (exhausted=%v)", r.NumSols, r.Req.Target, r.Done.Exhausted)
	}
	if r.NumSols > 0 && r.NumVars != f.NumVars {
		bad("assignments over %d variables, formula has %d", r.NumVars, f.NumVars)
		return
	}
	assign := make([]bool, f.NumVars)
	seen := make(map[string]bool, r.NumSols)
	for i := 0; i < r.NumSols; i++ {
		w := r.solution(i)
		for v := range assign {
			assign[v] = bit(w, v)
		}
		if !f.Sat(assign) {
			bad("solution %d does not satisfy the formula", i)
		}
		for _, l := range r.Req.Assume {
			if assign[l.Var()-1] != l.Positive() {
				bad("solution %d violates pin %d", i, int(l))
			}
		}
		k := string(wordBytes(w))
		if seen[k] {
			bad("solution %d repeats an earlier one", i)
		}
		seen[k] = true
	}
}

// bit reports bit i of a packed assignment.
func bit(w []uint64, i int) bool { return w[i>>6]>>(i&63)&1 == 1 }

func wordBytes(w []uint64) []byte {
	b := make([]byte, 0, 8*len(w))
	for _, x := range w {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(x>>s))
		}
	}
	return b
}

// counter names read from /metrics for the workload self-check and the
// compile-tier counts.
const (
	mHits     = "satserved_compiler_hits_total"
	mMisses   = "satserved_compiler_misses_total"
	mDiskHits = "satserved_store_hits_total"
	mShed     = "satserved_shed_total"
)

// selfCheck verifies from /metrics deltas that the window ran the
// workload it claims to: on cold-mix exactly one compiler miss per posted
// body and at least one disk-tier hit per evicted leg; on the warm
// workloads no compiler miss at all.
func selfCheck(w *workload, res []*result, before, after map[string]float64) []string {
	d := func(k string) int { return int(after[k] - before[k]) }
	legs := map[string]int{}
	for _, r := range res {
		legs[r.Req.Leg]++
	}
	var bad []string
	if w.Pool != nil {
		if d(mMisses) != legs[legPost] {
			bad = append(bad, fmt.Sprintf("%d compiler misses for %d posted bodies", d(mMisses), legs[legPost]))
		}
		if d(mDiskHits) < legs[legEvicted] {
			bad = append(bad, fmt.Sprintf("%d disk-tier hits for %d evicted-key legs", d(mDiskHits), legs[legEvicted]))
		}
	} else if d(mMisses) != 0 {
		bad = append(bad, fmt.Sprintf("%d compiler misses in a warm window", d(mMisses)))
	}
	return bad
}
