package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// legOrder sorts an item's legs in the order they were sent.
var legOrder = map[string]int{legKey: 0, legPost: 0, legAssume: 1, legEvicted: 2}

// traceRun is the traced run. It times the workload untraced for half
// the window, then sends exactly the same items to a freshly set-up
// server with client-side spans, replays every traced request in-process
// through the layers, and reports the per-layer metrics. The tracing
// overhead is the traced minus the untraced median request time.
func traceRun(ctx context.Context, workdir, name string, seed int64, dur time.Duration) (report, error) {
	s, _, err := setup(ctx, workdir, name, seed, dur)
	if err != nil {
		return report{}, err
	}
	plain, _, pb, pa, err := window(ctx, s, dur/2, nil, nil)
	s.stop()
	if err != nil {
		return report{}, err
	}

	if s, _, err = setup(ctx, workdir, name, seed, dur); err != nil {
		return report{}, err
	}
	tr := newTracer()
	traced, wall, before, after, err := window(ctx, s, 0, itemsDone(s.w, plain), tr)
	s.stop()
	if err != nil {
		return report{}, err
	}
	checkOutputs(plain)
	checkOutputs(traced)
	bad := append(selfCheck(s.w, plain, pb, pa), selfCheck(s.w, traced, before, after)...)

	dir, err := scratchDir(workdir, "replay")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	rp, err := newReplayer(tr, dir)
	if err != nil {
		return report{}, err
	}
	defer rp.close()
	// Replay the set-up compiles too (as traces -1, -2, …): the warm
	// workloads' requests need their artifacts, cold-mix's first evicted
	// legs read theirs from the replay store, and the compile tier is
	// measured on every workload.
	for k, rq := range s.w.setupPosts() {
		id := -(k + 1)
		t0 := time.Now()
		root := tr.add(id, 0, "replay", t0, t0, 0)
		p, err := rp.compile(id, root, rq.Inst.Body)
		tr.end(root, time.Now())
		if err != nil {
			return report{}, fmt.Errorf("replay compile of %s: %v", rq.Inst.Name, err)
		}
		if s.w.Pool == nil {
			rp.probs[rq.Inst.Key] = p
		}
	}
	sort.Slice(traced, func(i, j int) bool {
		a, b := traced[i].Req, traced[j].Req
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Item != b.Item {
			return a.Item < b.Item
		}
		return legOrder[a.Leg] < legOrder[b.Leg]
	})
	for _, r := range traced {
		if r.Err != "" {
			continue
		}
		if err := rp.replay(r); err != nil {
			r.Bad = append(r.Bad, "replay: "+err.Error())
		}
	}
	if s.w.Pool == nil {
		if err := rp.warmTier(s.w, traced); err != nil {
			return report{}, err
		}
	}
	spans := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	if err := tr.write(spans); err != nil {
		return report{}, err
	}

	rep := endToEnd(traced, wall)
	printReport(name+" (traced)", traced, wall, rep, bad)
	rep.Metrics = perLayer(rp, traced, before, after)
	rep.Metrics["trace.overhead_ms"] = metric{
		quantileOK(traced, 0.5) - quantileOK(plain, 0.5), "ms"}
	rep.Correct = rep.Correct && len(bad) == 0
	for _, r := range plain {
		rep.Correct = rep.Correct && len(r.Bad) == 0
	}
	fmt.Printf("# spans written to %s\n", spans)
	fmt.Printf("# dominant layer shares of request wall: kernel %.3f, delivery %.3f, compile tier %.3f\n",
		rep.Metrics["share.kernel"].Value, rep.Metrics["share.delivery"].Value, rep.Metrics["share.compile_tier"].Value)
	printMetrics(name, rep.Metrics)
	return rep, nil
}

// quantileOK is the q-quantile of the served requests' times in ms.
func quantileOK(res []*result, q float64) float64 {
	var xs []float64
	for _, r := range res {
		if r.ok() {
			xs = append(xs, ms(r.DoneAt))
		}
	}
	return quantile(xs, q)
}

// perLayer derives the per-layer metrics from the spans' self times, the
// replay's counts, the live streams, and the /metrics deltas of the
// traced window. Timings are medians per request; compile-tier timings are
// medians over the requests (and set-up compiles) that crossed the layer.
// server.queue_ms is a mean: the server reports it rounded to
// microseconds, so its median repeats exactly from run to run.
func perLayer(rp *replayer, traced []*result, before, after map[string]float64) map[string]metric {
	self := rp.tr.selfTimes()
	layer := map[string][]float64{}
	var session, kernel, ticks, matUS, yield, deliver, bytesPerSol, metaMS, queueMS, unaccounted []float64
	var wallSum, kernelSum, deliverySum, compileSum float64
	for _, r := range traced {
		st, replayed := rp.stats[r.ID]
		if !r.ok() || !replayed {
			continue
		}
		m := self[r.ID]
		wall := ms(r.DoneAt)
		lib := 0.0
		for _, n := range append([]string{spSession, spKernel, spMaterial, spDeliver}, compileTier...) {
			lib += ms(m[n])
		}
		tier := 0.0
		for _, n := range compileTier {
			tier += ms(m[n])
		}
		session = append(session, ms(m[spSession]))
		kernel = append(kernel, ms(m[spKernel]))
		ticks = append(ticks, float64(st.ticksToFirst))
		matUS = append(matUS, float64(st.matPerSol.Nanoseconds())/1e3)
		yield = append(yield, st.yield)
		deliver = append(deliver, ms(m[spDeliver]))
		if r.NumSols > 0 {
			bytesPerSol = append(bytesPerSol, float64(r.SolBytes)/float64(r.NumSols))
		}
		metaMS = append(metaMS, ms(r.MetaAt))
		queueMS = append(queueMS, r.Meta.QueueMS)
		unaccounted = append(unaccounted, wall-r.Meta.QueueMS-lib)
		wallSum += wall
		kernelSum += ms(m[spKernel])
		deliverySum += ms(m[spMaterial]) + ms(m[spDeliver])
		compileSum += tier
	}
	// Compile-tier layers: every trace that crossed the layer, set-up
	// compiles included.
	for _, m := range self {
		for _, n := range compileTier {
			if d, ok := m[n]; ok {
				layer[n] = append(layer[n], ms(d))
			}
		}
	}
	share := func(x float64) float64 {
		if wallSum == 0 {
			return 0
		}
		return x / wallSum
	}
	d := func(k string) float64 { return after[k] - before[k] }
	return map[string]metric{
		"core.session_ms":             {median(session), "ms"},
		"core.kernel_ms":              {median(kernel), "ms"},
		"core.ticks_to_first":         {median(ticks), "count"},
		"core.materialize_us_per_sol": {median(matUS), "us"},
		"core.yield":                  {median(yield), "frac"},
		"server.overhead_ms":          {median(deliver), "ms"},
		"server.bytes_per_sol":        {median(bytesPerSol), "B"},
		"server.meta_ms":              {median(metaMS), "ms"},
		"server.queue_ms":             {mean(queueMS), "ms"},
		"cnf.parse_ms":                {median(layer[spParse]), "ms"},
		"extract.transform_ms":        {median(layer[spTransform]), "ms"},
		"extract.nodes":               {median(rp.nodes), "count"},
		"core.compile_ms":             {median(layer[spCompile]), "ms"},
		"core.marshal_ms":             {median(layer[spMarshal]), "ms"},
		"core.blob_kb":                {median(rp.blobs), "KiB"},
		"store.put_ms":                {median(layer[spPut]), "ms"},
		"core.specialize_ms":          {median(layer[spSpecialize]), "ms"},
		"store.get_ms":                {median(layer[spGet]), "ms"},
		"core.decode_ms":              {median(layer[spDecode]), "ms"},
		"sat.precheck_ms":             {median(layer[spPrecheck]), "ms"},
		"sampling.tier_memory":        {d(mHits), "count"},
		"sampling.tier_disk":          {d(mDiskHits), "count"},
		"sampling.tier_cold":          {d(mMisses), "count"},
		"server.shed":                 {d(mShed), "count"},
		"unaccounted_ms":              {median(unaccounted), "ms"},
		"share.kernel":                {share(kernelSum), "frac"},
		"share.delivery":              {share(deliverySum), "frac"},
		"share.compile_tier":          {share(compileSum), "frac"},
	}
}
