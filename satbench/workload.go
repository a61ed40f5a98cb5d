package main

import (
	"fmt"
	"math/rand"

	"repro/internal/benchgen"
	"repro/internal/cnf"
)

// instance is one formula the benchmark sends to the server: the DIMACS
// bytes exactly as posted and the content-hash key the server files it
// under.
type instance struct {
	Name string
	Body []byte
	Key  string
	// Pins are literals on primary inputs taken from one model of the
	// formula, so any subset of them is satisfiable (cold-mix only).
	Pins []cnf.Lit
}

// Leg kinds. A warm request is a "key" leg; a cold-mix item is a "post",
// an "assume" and an "evicted" leg, in that order.
const (
	legKey     = "key"
	legPost    = "post"
	legAssume  = "assume"
	legEvicted = "evicted"
)

// request is one POST /v1/sample the benchmark sends.
type request struct {
	Client int
	Item   int
	Leg    string
	Inst   *instance
	Target int
	Seed   int64
	Assume []cnf.Lit // ?assume= pins (assume legs only)
}

// query renders the request's URL query. Post legs send Inst.Body; every
// other leg sends no body and names the formula by key.
func (r request) query() string {
	q := fmt.Sprintf("target=%d&seed=%d&timeout=60s", r.Target, r.Seed)
	if r.Leg != legPost {
		q += "&key=" + r.Inst.Key
	}
	if len(r.Assume) > 0 {
		q += "&assume="
		for i, l := range r.Assume {
			if i > 0 {
				q += ","
			}
			q += fmt.Sprint(int(l))
		}
	}
	return q
}

// workload is a closed-loop traffic mix: Clients callers, each sending the
// legs of its items one after another and waiting for every stream to end.
// Everything a request carries is derived from the seed.
type workload struct {
	Clients int
	// Warm lists the instances compiled during set-up (warm workloads).
	Warm []*instance
	// Pool[c] lists client c's cold-mix items (cold-mix only). Items
	// below coldWarmup are posted during set-up so that the first timed
	// item already has an evicted predecessor.
	Pool [][]*instance
	// Target is the solution target of every request.
	Target int
	seed   int64
}

// coldWarmup is how many items per client cold-mix posts during set-up;
// item j's evicted leg reads item j-coldWarmup back from the disk tier.
const coldWarmup = 2

// firstItem is the index of the first timed item of every client.
func (w *workload) firstItem() int {
	if w.Pool != nil {
		return coldWarmup
	}
	return 0
}

// numItems bounds the items a client may send (warm workloads: no bound).
func (w *workload) numItems(client int) int {
	if w.Pool != nil {
		return len(w.Pool[client])
	}
	return 1 << 30
}

// item returns the requests of client c's j-th item.
func (w *workload) item(c, j int) []request {
	if w.Pool == nil {
		return []request{{
			Client: c, Item: j, Leg: legKey, Inst: w.Warm[j%len(w.Warm)],
			Target: w.Target, Seed: mix(w.seed, 1, int64(c), int64(j)),
		}}
	}
	it := w.Pool[c][j]
	legs := []request{{
		Client: c, Item: j, Leg: legPost, Inst: it,
		Target: w.Target, Seed: mix(w.seed, 2, int64(c), int64(j)),
	}, {
		Client: c, Item: j, Leg: legAssume, Inst: it, Assume: it.Pins,
		Target: w.Target, Seed: mix(w.seed, 3, int64(c), int64(j)),
	}}
	if j >= coldWarmup {
		legs = append(legs, request{
			Client: c, Item: j, Leg: legEvicted, Inst: w.Pool[c][j-coldWarmup],
			Target: w.Target, Seed: mix(w.seed, 4, int64(c), int64(j)),
		})
	}
	return legs
}

// setupPosts returns the requests set-up sends to compile what the
// workload expects compiled: the warm instances, or the post legs of
// cold-mix's first coldWarmup items of every client, item-major so each
// client's oldest item is the least recently used.
func (w *workload) setupPosts() []request {
	var out []request
	for _, in := range w.Warm {
		out = append(out, request{Leg: legPost, Inst: in, Target: 1, Seed: 1})
	}
	for j := 0; j < coldWarmup && w.Pool != nil; j++ {
		for c := range w.Pool {
			out = append(out, w.item(c, j)[0])
		}
	}
	return out
}

// Workload names.
const (
	warmFirst = "warm-first"
	warmBulk  = "warm-bulk"
	coldMix   = "cold-mix"
)

var workloadNames = []string{warmFirst, warmBulk, coldMix}

// newWorkload generates a workload's inputs from seed. poolItems sizes
// cold-mix's per-client item pool; warm workloads ignore it.
func newWorkload(name string, seed int64, poolItems int) (*workload, error) {
	switch name {
	case warmFirst:
		// The same constructors and arguments as benchgen.Table2Instances,
		// without generating the whole table.
		return &workload{Clients: 1, Target: 20, seed: seed, Warm: []*instance{
			fromBenchgen(benchgen.OrChain("or-100-20-8-UC-10", 98, 10, 10020)),
			fromBenchgen(benchgen.Iscas("s15850a_3_2", 600, 10300, 3, 15832)),
			fromBenchgen(benchgen.Prod("Prod-8", 293, 150, 8)),
		}}, nil
	case warmBulk:
		return &workload{Clients: 1, Target: bulkTarget, seed: seed, Warm: []*instance{
			fromBenchgen(benchgen.Iscas("s15850a_3_2", 600, 10300, 3, 15832)),
			fromBenchgen(benchgen.Prod("Prod-8", 293, 150, 8)),
		}}, nil
	case coldMix:
		w := &workload{Clients: 2, Target: 20, seed: seed}
		seen := map[string]bool{}
		for c := 0; c < w.Clients; c++ {
			var items []*instance
			for j := 0; j < poolItems; j++ {
				items = append(items, coldItem(seed, c, j, seen))
			}
			w.Pool = append(w.Pool, items)
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// bulkTarget is warm-bulk's per-request target.
const bulkTarget = 100

// coldPins is how many primary inputs an assume leg pins.
const coldPins = 6

// coldItem generates client c's j-th cold-mix formula: a small Iscas- or
// Prod-family instance whose content hash no earlier item of the run has,
// plus coldPins pins on primary inputs agreeing with one of its models.
func coldItem(seed int64, c, j int, seen map[string]bool) *instance {
	for attempt := int64(0); ; attempt++ {
		r := rand.New(rand.NewSource(mix(seed, 5, int64(c), int64(j)*1000+attempt)))
		name := fmt.Sprintf("cold-%d-%d", c, j)
		var in *benchgen.Instance
		if r.Intn(2) == 0 {
			in = benchgen.Iscas(name, 140+r.Intn(40), 1800+r.Intn(400), 3, r.Int63())
		} else {
			in = benchgen.Prod(name, 56+r.Intn(16), 28+r.Intn(8), r.Int63())
		}
		model, ok := goldenModel(in, r)
		if !ok {
			continue
		}
		it := fromBenchgen(in)
		if seen[it.Key] {
			continue
		}
		seen[it.Key] = true
		for _, i := range r.Perm(len(model))[:coldPins] {
			l := cnf.Lit(in.Enc.InputVar[i])
			if !model[i] {
				l = -l
			}
			it.Pins = append(it.Pins, l)
		}
		it.Pins = cnf.CanonicalAssume(it.Pins)
		return it
	}
}

// goldenModel draws random primary-input vectors until one drives every
// constrained output of the instance's circuit to its target: the Tseitin
// CNF then has a model agreeing with it on every primary input.
func goldenModel(in *benchgen.Instance, r *rand.Rand) ([]bool, bool) {
	x := make([]bool, len(in.Golden.Inputs))
	for try := 0; try < 4096; try++ {
		for i := range x {
			x[i] = r.Intn(2) == 0
		}
		vals := in.Golden.Eval(x)
		ok := true
		for _, o := range in.Golden.Outputs {
			ok = ok && vals[o.Node] == o.Target
		}
		if ok {
			return x, true
		}
	}
	return nil, false
}

func fromBenchgen(in *benchgen.Instance) *instance {
	return &instance{
		Name: in.Name,
		Body: []byte(in.Formula.DIMACSString()),
		Key:  in.Formula.ContentHash(),
	}
}

// mix derives a request seed from the benchmark seed and a tuple of
// coordinates (SplitMix64 finalizer over each word). Seeds stay positive
// so they print as plain decimal query parameters.
func mix(seed int64, words ...int64) int64 {
	h := uint64(seed)
	for _, w := range words {
		h ^= uint64(w) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 1)
}
