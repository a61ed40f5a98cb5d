package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/sat"
	"repro/internal/store"
	"repro/internal/tensor"
)

// span is one timed interval of a traced request. Spans of one request
// share Trace (the benchmark's request id); Parent is the causing span's
// ID (0 for a root).
type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Count  int     `json:"count,omitempty"` // work done inside the span (solutions, ticks)
}

func (s span) dur() time.Duration { return time.Duration((s.End - s.Start) * 1e3) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(trace, parent int, name string, start, end time.Time, count int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name, Count: count,
		Start: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.epoch).Nanoseconds()) / 1e3,
	})
	return id
}

// end sets the end time of span id.
func (t *tracer) end(id int, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = float64(at.Sub(t.epoch).Nanoseconds()) / 1e3
}

// timed runs fn inside a span named name.
func (t *tracer) timed(trace, parent int, name string, fn func()) {
	s := time.Now()
	fn()
	t.add(trace, parent, name, s, time.Now(), 0)
}

// recordHTTP records the client-side spans of one live request: the
// request itself, and as its children the wait for the meta line, for the
// first solution, and for the done line.
func (t *tracer) recordHTTP(r *result) {
	if r.Done == nil {
		return
	}
	at := func(d time.Duration) time.Time { return r.Send.Add(d) }
	root := t.add(r.ID, 0, "http.request", r.Send, at(r.DoneAt), r.NumSols)
	first := r.FirstAt
	if r.NumSols == 0 {
		first = r.MetaAt
	}
	t.add(r.ID, root, "http.meta", r.Send, at(r.MetaAt), 0)
	t.add(r.ID, root, "http.first", at(r.MetaAt), at(first), min(r.NumSols, 1))
	t.add(r.ID, root, "http.rest", at(first), at(r.DoneAt), max(r.NumSols-1, 0))
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// selfTimes sums, per request id and span name, each span's self time: its
// duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[int]map[string]time.Duration{}
	for _, s := range t.spans {
		m := out[s.Trace]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Trace] = m
		}
		m[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// Layer span names. The replay root's children are the library layers a
// request crosses inside the server.
const (
	spParse      = "cnf.parse"
	spTransform  = "extract.transform"
	spCompile    = "core.compile"
	spMarshal    = "core.marshal"
	spPut        = "store.put"
	spGet        = "store.get"
	spDecode     = "core.decode"
	spSpecialize = "core.specialize"
	spPrecheck   = "sat.precheck"
	spSession    = "core.session"
	spKernel     = "core.kernel"
	spMaterial   = "core.materialize"
	spDeliver    = "server.deliver"
)

// compileTier lists the span names of the compile tier.
var compileTier = []string{spParse, spTransform, spCompile, spMarshal, spPut, spGet, spDecode, spSpecialize, spPrecheck}

// replayStats holds per-request counts the spans do not carry.
type replayStats struct {
	ticksToFirst int
	yield        float64
	matPerSol    time.Duration
}

// replayer re-runs each traced request in-process through the layers'
// public Go functions, with the meta line's batch and the request's seed
// and target, over its own scratch store.
type replayer struct {
	tr      *tracer
	st      *store.Store
	dev     tensor.Device
	probs   map[string]*core.Problem // compiled or specialized artifacts by key
	nodes   []float64                // extract.nodes per transform
	blobs   []float64                // core.blob_kb per write-back
	stats   map[int]replayStats
	deliver *deliverServer
}

func newReplayer(tr *tracer, dir string) (*replayer, error) {
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	d, err := startDeliverServer()
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, st: st, dev: tensor.Parallel(), probs: map[string]*core.Problem{},
		stats: map[int]replayStats{}, deliver: d}, nil
}

func (rp *replayer) close() { rp.deliver.stop() }

// compile replays a cold compile of body: parse, transform, compile, and
// the write-back to the store.
func (rp *replayer) compile(trace, parent int, body []byte) (*core.Problem, error) {
	var f *cnf.Formula
	var ext *extract.Result
	var p *core.Problem
	var err error
	rp.tr.timed(trace, parent, spParse, func() { f, err = cnf.ParseDIMACSLimits(bytes.NewReader(body), cnf.DefaultParseLimits()) })
	if err != nil {
		return nil, err
	}
	rp.tr.timed(trace, parent, spTransform, func() { ext, err = extract.Transform(f) })
	if err != nil {
		return nil, err
	}
	rp.nodes = append(rp.nodes, float64(len(ext.Circuit.Nodes)))
	rp.tr.timed(trace, parent, spCompile, func() { p, err = core.Compile(f, ext) })
	if err != nil {
		return nil, err
	}
	return p, rp.writeBack(trace, parent, p)
}

func (rp *replayer) writeBack(trace, parent int, p *core.Problem) error {
	var blob []byte
	var err error
	rp.tr.timed(trace, parent, spMarshal, func() { blob, err = p.MarshalBinary() })
	if err != nil {
		return err
	}
	rp.blobs = append(rp.blobs, float64(len(blob))/1024)
	rp.tr.timed(trace, parent, spPut, func() { err = rp.st.Put(p.Key(), blob) })
	return err
}

// assumePrecheckConflicts mirrors the server's bound on the UNSAT-under-
// assumptions precheck.
const assumePrecheckConflicts = 20000

// precheck replays the server's UNSAT-under-assumptions precheck of a
// specialized problem.
func (rp *replayer) precheck(trace, parent int, p *core.Problem) error {
	var st sat.Status
	rp.tr.timed(trace, parent, spPrecheck, func() {
		st = sat.NewSolver(p.Formula(), sat.Options{MaxConflicts: assumePrecheckConflicts}).SolveAssume(p.Assumptions()...)
	})
	if st == sat.Unsat {
		return fmt.Errorf("precheck reports UNSAT under the pins")
	}
	return nil
}

// warmTier replays, per warm instance, the layers the warm requests never
// cross, so they read a measurement on every workload: the disk-tier load
// a restarted replica would pay (store read-back and decode of the
// instance's artifact), then core.Specialize and the precheck an ?assume=
// request would pay, under coldPins pins on primary inputs taken from the
// first solution the server delivered for the instance.
func (rp *replayer) warmTier(w *workload, traced []*result) error {
	first := map[string]*result{}
	for _, r := range traced {
		if _, ok := first[r.Req.Inst.Key]; !ok && r.ok() && r.NumSols > 0 {
			first[r.Req.Inst.Key] = r
		}
	}
	for k, in := range w.Warm {
		id := -(len(w.Warm) + k + 1)
		t0 := time.Now()
		root := rp.tr.add(id, 0, "replay", t0, t0, 0)
		err := rp.warmLoad(id, root, in, first[in.Key])
		rp.tr.end(root, time.Now())
		if err != nil {
			return fmt.Errorf("replay of %s's disk tier: %v", in.Name, err)
		}
	}
	return nil
}

func (rp *replayer) warmLoad(trace, parent int, in *instance, r *result) error {
	p, err := rp.load(trace, parent, in.Key)
	if err != nil || r == nil {
		return err
	}
	var pins []cnf.Lit
	for _, v := range p.Extraction().PrimaryInputs[:min(coldPins, len(p.Extraction().PrimaryInputs))] {
		l := cnf.Lit(v)
		if !bit(r.solution(0), v-1) {
			l = -l
		}
		pins = append(pins, l)
	}
	rp.tr.timed(trace, parent, spSpecialize, func() { p, err = core.Specialize(p, pins) })
	if err != nil {
		return err
	}
	return rp.precheck(trace, parent, p)
}

// load replays a disk-tier load: the store read and the decode.
func (rp *replayer) load(trace, parent int, key string) (*core.Problem, error) {
	var blob []byte
	ok := false
	rp.tr.timed(trace, parent, spGet, func() { blob, ok = rp.st.Get(key) })
	if !ok {
		return nil, fmt.Errorf("replay store has no artifact for %.12s", key)
	}
	var p *core.Problem
	var err error
	rp.tr.timed(trace, parent, spDecode, func() { p, err = core.DecodeProblem(blob) })
	return p, err
}

// replay re-runs one live request and checks that it delivers the same
// solutions in the same order.
func (rp *replayer) replay(r *result) error {
	root := time.Now()
	rootID := rp.tr.add(r.ID, 0, "replay", root, root, 0)
	defer func() { rp.tr.end(rootID, time.Now()) }()
	var p *core.Problem
	var err error
	switch r.Req.Leg {
	case legKey:
		p = rp.probs[r.Req.Inst.Key]
	case legPost:
		p, err = rp.compile(r.ID, rootID, r.Req.Inst.Body)
		rp.probs[r.Req.Inst.Key] = p
	case legAssume:
		// The base artifact is needed by this leg only; later legs on the
		// item read it back from the store.
		base := rp.probs[r.Req.Inst.Key]
		delete(rp.probs, r.Req.Inst.Key)
		if base == nil {
			return fmt.Errorf("assume leg before its post leg")
		}
		rp.tr.timed(r.ID, rootID, spSpecialize, func() { p, err = core.Specialize(base, r.Req.Assume) })
		if err == nil {
			err = rp.writeBack(r.ID, rootID, p)
		}
		if err == nil {
			err = rp.precheck(r.ID, rootID, p)
		}
	case legEvicted:
		p, err = rp.load(r.ID, rootID, r.Req.Inst.Key)
	}
	if err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("no artifact for %.12s", r.Req.Inst.Key)
	}
	var smp *core.Sampler
	rp.tr.timed(r.ID, rootID, spSession, func() {
		smp, err = p.NewSampler(core.Config{BatchSize: r.Meta.Batch, Seed: r.Req.Seed, Device: rp.dev})
	})
	if err != nil {
		return err
	}
	// The server's stream loop: tick until the target is reached or the
	// scheduler reports exhaustion, delivering after every tick.
	var sols [][]bool
	var st replayStats
	var mat time.Duration
	target := r.Req.Target
	for ticks := 1; smp.UniqueCount() < target && !smp.Exhausted(); ticks++ {
		t0 := time.Now()
		smp.ContinuousStep(target)
		t1 := time.Now()
		rp.tr.add(r.ID, rootID, spKernel, t0, t1, 1)
		n := 0
		for len(sols) < min(smp.UniqueCount(), target) {
			sols = append(sols, smp.FullAssignmentAt(len(sols)))
			n++
		}
		if n > 0 {
			t2 := time.Now()
			rp.tr.add(r.ID, rootID, spMaterial, t1, t2, n)
			mat += t2.Sub(t1)
			if st.ticksToFirst == 0 {
				st.ticksToFirst = ticks
			}
		}
	}
	if len(sols) > 0 {
		st.matPerSol = mat / time.Duration(len(sols))
	}
	if cs := smp.Stats(); cs.Retired+cs.Stalled > 0 {
		st.yield = float64(cs.Unique) / float64(cs.Retired+cs.Stalled)
	}
	rp.stats[r.ID] = st
	if err := sameStream(r, sols); err != nil {
		return err
	}
	t0 := time.Now()
	derr := rp.deliver.run(r, sols)
	rp.tr.add(r.ID, rootID, spDeliver, t0, time.Now(), len(sols))
	return derr
}

// sameStream is replay equivalence: the replay must deliver the live
// stream solution for solution.
func sameStream(r *result, sols [][]bool) error {
	if len(sols) != r.NumSols {
		return fmt.Errorf("replay delivered %d solutions, the server %d", len(sols), r.NumSols)
	}
	for i, s := range sols {
		w := r.solution(i)
		for v, b := range s {
			if bit(w, v) != b {
				return fmt.Errorf("replay solution %d differs from the server's at variable %d", i, v+1)
			}
		}
	}
	return nil
}

// deliverServer replays the server's delivery of a stream over loopback
// HTTP: it JSON-encodes the meta, solution and done lines in the server's
// shapes, flushing after each line as the server does, and the benchmark's
// client reads them back with the same reader the live run uses.
type deliverServer struct {
	hs   *http.Server
	base string
	cl   *client
	done chan struct{}
	mu   sync.Mutex
	next int
	jobs map[int]deliverJob
}

type deliverJob struct {
	meta metaLine
	sols [][]bool
}

func startDeliverServer() (*deliverServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &deliverServer{base: "http://" + ln.Addr().String(), done: make(chan struct{}), jobs: map[int]deliverJob{}}
	d.cl = newClient(d.base, 1)
	d.hs = &http.Server{Handler: http.HandlerFunc(d.serve)}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

func (d *deliverServer) stop() {
	d.cl.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
}

func (d *deliverServer) serve(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.Atoi(r.URL.Query().Get("id"))
	d.mu.Lock()
	job, ok := d.jobs[id]
	delete(d.jobs, id)
	d.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeLine := func(v any) {
		enc.Encode(v)
		flusher.Flush()
	}
	writeLine(struct {
		Type    string  `json:"type"`
		Key     string  `json:"key"`
		Batch   int     `json:"batch"`
		Target  int     `json:"target"`
		QueueMS float64 `json:"queue_ms"`
	}{"meta", job.meta.Key, job.meta.Batch, job.meta.Target, job.meta.QueueMS})
	for _, sol := range job.sols {
		b := make([]byte, len(sol))
		for i, v := range sol {
			b[i] = '0'
			if v {
				b[i] = '1'
			}
		}
		writeLine(struct {
			Type       string `json:"type"`
			Assignment string `json:"assignment"`
		}{"solution", string(b)})
	}
	writeLine(struct {
		Type      string `json:"type"`
		Unique    int    `json:"unique"`
		Delivered int    `json:"delivered"`
	}{"done", len(job.sols), len(job.sols)})
}

// run streams sols through the delivery replay and reads them back.
func (d *deliverServer) run(r *result, sols [][]bool) error {
	d.mu.Lock()
	d.next++
	id := d.next
	d.jobs[id] = deliverJob{meta: r.Meta, sols: sols}
	d.mu.Unlock()
	req, err := http.NewRequest(http.MethodGet, d.base+"/?id="+strconv.Itoa(id), nil)
	if err != nil {
		return err
	}
	resp, err := d.cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got := &result{Send: time.Now()}
	if err := readStream(resp.Body, got); err != nil {
		return fmt.Errorf("delivery replay: %v", err)
	}
	if got.NumSols != len(sols) {
		return fmt.Errorf("delivery replay read %d of %d solutions", got.NumSols, len(sols))
	}
	return nil
}

// mean returns the mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
