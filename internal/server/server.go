// Package server implements satserved: a multi-tenant network sampling
// service over the compile cache. Clients POST a DIMACS CNF (or the
// content-hash key of one the server has already compiled) and receive
// verified solutions back as an NDJSON stream.
//
// The service is the amortization argument of the sampling layer lifted to
// the network: N concurrent requests for the same formula compile once
// (sampling.Compiler single-flight + LRU) and stream from independent
// Sessions over the one shared artifact. Around that core sit the pieces a
// multi-tenant deployment needs:
//
//   - a bounded weighted-fair admission queue (per-tenant start-time fair
//     queueing), so one tenant's flood cannot starve the rest. Tenant
//     identity and weight are read from the request (X-Tenant header /
//     query params) and are only meaningful when a trusted edge — reverse
//     proxy, API gateway — sets them after authenticating; a deployment
//     facing anonymous clients should strip them at the edge (every
//     request then shares the "anon" tenant) and rely on the bounded
//     queue, or set MaxWeight to 1 to neutralize client-chosen weights;
//   - admission control driven by queue depth and the compiled memory
//     model (MemoryEstimate/BatchForBudget): requests that would exceed
//     the aggregate session-memory budget are shed with 429 + Retry-After
//     instead of degrading in-flight streams or OOMing. The estimate
//     prices the dedup pool against the request's effective target, and
//     "unbounded" requests (target=0) are capped at MaxTarget, so every
//     admitted stream is bounded by construction. Compilation of new
//     formulas — the one memory cost that precedes admission — runs
//     through a gate bounding concurrent compiles (cache hits bypass it);
//   - per-request deadlines and client-disconnect cancellation threaded
//     into Session.Stream;
//   - graceful drain: on SIGTERM the server rejects new work, lets
//     in-flight streams run out a grace period, then cancels them — every
//     stream still ends with a well-formed summary line carrying its
//     partial results;
//   - observability: /healthz, Prometheus-style /metrics (queue depth,
//     active sessions, sol/s, compiler hit/miss/eviction/residency), and
//     structured request logs.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/sampling"
	"repro/internal/sat"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Config configures a Server. The zero value of every field selects a
// production-sane default.
type Config struct {
	// Compiler is the shared compile cache. Nil builds a fresh one with
	// the default capacity.
	Compiler *sampling.Compiler
	// Store, when set, is the durable compile tier: the compiler falls
	// through its memory LRU to this content-addressed artifact store
	// before compiling, and writes freshly compiled artifacts back. Point
	// every replica of a fleet at one shared directory and each formula
	// compiles once fleet-wide; a restarted replica comes back warm. Store
	// stats ride on /metrics as satserved_store_*.
	Store *store.Store
	// Device executes GD batches (default: all CPUs).
	Device tensor.Device
	// Workers bounds concurrently streaming sessions (default 4). Each
	// session parallelizes internally over Device, so this is a
	// concurrency/latency knob, not a core count.
	Workers int
	// QueueDepth bounds jobs waiting for a worker slot (default 64);
	// arrivals beyond it are shed with 429.
	QueueDepth int
	// MemoryBudget bounds the aggregate estimated bytes of admitted
	// sessions (default 512 MiB). Admission reserves each session's
	// MemoryEstimate against it; overflow is shed with 429.
	MemoryBudget int64
	// SessionMemory is the per-session budget BatchForBudget sizes the GD
	// batch against (default 64 MiB).
	SessionMemory int64
	// MaxTarget caps a request's solution target (default 100000). A
	// request with target <= 0 gets exactly this cap: there are no
	// unbounded streams, which is what lets admission control price each
	// session's dedup pool.
	MaxTarget int
	// MaxWeight caps the client-supplied fair-queueing weight (default 8;
	// set 1 to ignore client weights entirely). Weights are only
	// trustworthy behind an authenticating edge — see the package doc.
	MaxWeight int
	// DefaultTarget applies when a request names no target (default 1000).
	DefaultTarget int
	// MaxTimeout / DefaultTimeout bound the per-request sampling deadline
	// (defaults 2m / 30s). Unbounded-target requests run to the deadline.
	MaxTimeout     time.Duration
	DefaultTimeout time.Duration
	// Limits bounds untrusted DIMACS input (zero value selects
	// cnf.DefaultParseLimits).
	Limits cnf.ParseLimits
	// DrainGrace is how long in-flight streams may keep running after
	// drain starts before their contexts are cancelled (default 5s).
	DrainGrace time.Duration
	// SpoolBudget bounds the resume-token spool: the aggregate bytes of
	// session checkpoints parked by drains, LRU-evicted beyond it (default
	// 32 MiB; < 0 disables spooling and drains cancel without tokens).
	SpoolBudget int64
	// SpoolDir, when set, persists spooled checkpoints to disk so resume
	// tokens survive a process restart — the chaos tier's kill/restart
	// path. Empty keeps the spool in memory only.
	SpoolDir string
	// Peers lists sibling replicas' base URLs ("http://10.0.0.2:8080").
	// A draining server — or one told to POST /v1/handoff — pushes each
	// interrupted stream's checkpoint envelope to the first healthy peer
	// with capacity instead of only parking it locally; the done line's
	// resume_addr then points the retrying client straight at the adopting
	// peer. Empty disables handoff (drains spool locally as before).
	Peers []string
	// PeerProbe is the /healthz probe interval for Peers (default 1s).
	PeerProbe time.Duration
	// PreemptThreshold enables SFQ preemption: once the oldest queued
	// request has starved this long with every worker slot busy, the
	// active session with the largest virtual-finish overshoot is
	// checkpointed at its next tick boundary, spooled, and re-enqueued
	// behind a fresh fair-queueing tag — the stream stays on its HTTP
	// connection across the gap. Zero disables preemption.
	PreemptThreshold time.Duration
	// TenantQueueDepth bounds the waiters any one tenant may park in the
	// admission queue; overflow is shed with 429 + Retry-After (default 0:
	// no per-tenant bound beyond QueueDepth).
	TenantQueueDepth int
	// Injector, when armed, injects chaos-tier faults (adoption
	// rejections). Nil is inert.
	Injector *faultinject.Injector
	// Seed bases the per-request session seeds (default 1).
	Seed int64
	// Log receives structured request logs (default slog.Default()).
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Compiler == nil {
		c.Compiler = sampling.NewCompiler(0)
	}
	if c.Store != nil {
		c.Compiler.WithStore(c.Store)
	}
	if c.Device.Workers() < 1 {
		c.Device = tensor.Parallel()
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 512 << 20
	}
	if c.SessionMemory <= 0 {
		c.SessionMemory = 64 << 20
	}
	if c.MaxTarget <= 0 {
		c.MaxTarget = 100000
	}
	if c.MaxWeight <= 0 {
		c.MaxWeight = 8
	}
	if c.DefaultTarget <= 0 {
		c.DefaultTarget = 1000
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.Limits == (cnf.ParseLimits{}) {
		c.Limits = cnf.DefaultParseLimits()
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.PeerProbe <= 0 {
		c.PeerProbe = time.Second
	}
	if c.SpoolBudget == 0 {
		c.SpoolBudget = 32 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// Server is the satserved HTTP service. Create with New, mount Handler(),
// call StartDrain on shutdown.
type Server struct {
	cfg      Config
	compiler *sampling.Compiler
	queue    *queue
	met      *metrics
	spool    *spool
	log      *slog.Logger
	// parseGate bounds concurrent DIMACS body parses and compileGate
	// bounds concurrent formula compilations: the two pre-admission
	// memory costs. Without them a flood of limit-respecting bodies
	// could hold unbounded parsed Formulas (or compile work) before the
	// ledger or queue ever sees a request. Cache hits skip the compile
	// gate; key-based submits skip both.
	parseGate   chan struct{}
	compileGate chan struct{}

	draining   atomic.Bool
	sessCtx    context.Context // cancelled when the drain grace expires
	sessCancel context.CancelFunc

	// peers is the replica registry behind live handoff (nil without
	// Peers). handoff holds the current handoff epoch: an admin
	// POST /v1/handoff swaps in a fresh epoch and closes the old one's
	// channel, which every in-flight stream is watching.
	peers   *peerSet
	handoff atomic.Pointer[handoffSignal]

	memMu    sync.Mutex
	reserved int64

	seq       atomic.Int64 // request counter: ids and per-session seeds
	closed    chan struct{}
	closeOnce sync.Once
}

// handoffSignal is one handoff epoch: ch closes when an admin asks the
// streams of that epoch to move to a peer.
type handoffSignal struct{ ch chan struct{} }

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	sp, err := newSpool(cfg.SpoolBudget, cfg.SpoolDir, cfg.Log)
	if err != nil {
		// An unusable spool directory degrades to a memory-only spool:
		// resume tokens still work within this process's lifetime, they
		// just don't survive a restart.
		cfg.Log.Warn("spool directory unusable; falling back to memory-only spool", "err", err)
		sp, _ = newSpool(cfg.SpoolBudget, "", cfg.Log)
	}
	s := &Server{
		cfg:         cfg,
		compiler:    cfg.Compiler,
		queue:       newQueue(cfg.Workers, cfg.QueueDepth, cfg.TenantQueueDepth),
		met:         newMetrics(),
		spool:       sp,
		log:         cfg.Log,
		parseGate:   make(chan struct{}, max(2*cfg.Workers, 4)),
		compileGate: make(chan struct{}, cfg.Workers),
		sessCtx:     ctx,
		sessCancel:  cancel,
		closed:      make(chan struct{}),
	}
	s.handoff.Store(&handoffSignal{ch: make(chan struct{})})
	if len(cfg.Peers) > 0 {
		s.peers = newPeerSet(cfg.Peers, cfg.PeerProbe, cfg.Log)
	}
	if cfg.PreemptThreshold > 0 {
		go s.preemptLoop()
	}
	return s
}

// Close stops the server's background loops (peer prober, preemption
// ticker) and cancels any remaining session contexts. It does not wait for
// in-flight streams; for a graceful stop call StartDrain and
// http.Server.Shutdown first, then Close. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.peers != nil {
			s.peers.Close()
		}
		s.sessCancel()
	})
}

// preemptLoop periodically asks the queue to apply the preemption policy.
// The queue picks the victim (and enforces the starvation threshold); the
// victim's own handler does the checkpoint/re-queue dance, so this loop
// only ticks.
func (s *Server) preemptLoop() {
	interval := s.cfg.PreemptThreshold / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case now := <-t.C:
			if s.queue.PreemptOne(s.cfg.PreemptThreshold, now) {
				s.log.Info("preemption signalled", "oldest_wait", s.queue.OldestWait(now))
			}
		}
	}
}

// Compiler returns the shared compile cache (for embedding servers that
// want to pre-warm it or report its stats elsewhere).
func (s *Server) Compiler() *sampling.Compiler { return s.compiler }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sample", s.handleSample)
	mux.HandleFunc("POST /v1/adopt", s.handleAdopt)
	mux.HandleFunc("POST /v1/handoff", s.handleHandoff)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// StartDrain begins a graceful drain: new submissions are rejected with
// 503 immediately, requests already parked in the admission queue wake
// with the same clean 503 (instead of blocking out the grace period), and
// in-flight streams keep running for DrainGrace before their contexts are
// cancelled. A stream the grace cuts off is checkpointed into the spool
// and its summary line carries a resume token, so the client loses
// nothing — it re-attaches to the stream on the next process with
// ?resume=<token>. Idempotent. Callers typically follow with
// http.Server.Shutdown, which returns once the last stream finishes.
func (s *Server) StartDrain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.log.Info("drain started", "grace", s.cfg.DrainGrace)
	s.queue.StartDrain()
	time.AfterFunc(s.cfg.DrainGrace, s.sessCancel)
}

// Draining reports whether a drain is in progress.
func (s *Server) Draining() bool { return s.draining.Load() }

// reserve admits est bytes against the aggregate memory budget.
func (s *Server) reserve(est int64) bool {
	s.memMu.Lock()
	defer s.memMu.Unlock()
	if s.reserved+est > s.cfg.MemoryBudget {
		return false
	}
	s.reserved += est
	return true
}

func (s *Server) unreserve(est int64) {
	s.memMu.Lock()
	s.reserved -= est
	s.memMu.Unlock()
}

// sessionShape derives the GD batch a session over prob will run with
// (the same BatchForBudget sizing NewSession applies to SessionMemory) and
// the session's estimated resident bytes — the admission-control unit.
// The estimate adds the dedup pool's worst case at the request's effective
// target (packed primary-input rows plus hash/dedup overhead), and for a
// projected session (projVars > 0) the projection state the core memory
// model does not know about: the packed projection columns (projVars ×
// batch bits) and one stored signature per retained solution — so a
// stream that runs all the way to its cap is still inside its
// reservation.
func (s *Server) sessionShape(prob *sampling.Problem, target, projVars int) (batch int, est int64) {
	workers := s.cfg.Device.Workers()
	if workers < 1 {
		workers = 1
	}
	batch = prob.Core().BatchForBudget(workers, false, s.cfg.SessionMemory)
	if batch < 64 {
		batch = 64
	}
	if batch > 8192 {
		batch = 8192
	}
	return batch, s.estimateSession(prob, batch, target, projVars, false)
}

// estimateSession prices one session at an explicit batch — the shared
// tail of sessionShape, called directly by the resume path, where the
// batch is not derived from this server's budget but fixed by the
// checkpoint (a resumed session runs at the batch it was snapshotted
// with, so it must be re-priced at that batch against THIS ledger).
func (s *Server) estimateSession(prob *sampling.Problem, batch, target, projVars int, momentum bool) int64 {
	workers := s.cfg.Device.Workers()
	if workers < 1 {
		workers = 1
	}
	est := prob.Core().MemoryEstimate(workers, batch, momentum)
	est += int64(target) * int64(prob.NumInputs()/8+24)
	if projVars > 0 {
		est += int64(projVars) * int64(batch) / 8           // packed projection columns
		est += int64(target) * int64((projVars+63)/64*8+24) // per-solution signatures + slice overhead
	}
	return est
}

// errorBody writes a single-line JSON error response.
func (s *Server) errorBody(w http.ResponseWriter, status int, msg, outcome, retryAfter string) {
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
	s.met.request(outcome)
}

// parseProjectionSpec reads a ?project= value: either a JSON array
// ("[1,4,7]") or the comma-separated list satsample's -project flag also
// speaks (shared cnf.ParseProjectionList). Syntax only — range and
// duplicate validation happens once the formula's variable count is known
// (cnf.ValidateProjection).
func parseProjectionSpec(spec string) ([]int, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if strings.HasPrefix(spec, "[") {
		var vars []int
		if err := json.Unmarshal([]byte(spec), &vars); err != nil {
			return nil, fmt.Errorf("bad projection JSON: %v", err)
		}
		return vars, nil
	}
	return cnf.ParseProjectionList(spec)
}

// parseAssumeSpec reads a ?assume= value: either a JSON array of signed
// DIMACS literals ("[1,-4]") or the comma-separated list satsample's
// -assume flag also speaks (shared cnf.ParseAssumeList). Syntax only —
// range and contradiction validation happens once the formula's variable
// count is known (cnf.ValidateAssumptions, via CompileAssume/
// LookupAssume).
func parseAssumeSpec(spec string) ([]cnf.Lit, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if strings.HasPrefix(spec, "[") {
		var raw []int
		if err := json.Unmarshal([]byte(spec), &raw); err != nil {
			return nil, fmt.Errorf("bad assumption JSON: %v", err)
		}
		lits := make([]cnf.Lit, len(raw))
		for i, v := range raw {
			if v == 0 {
				return nil, fmt.Errorf("bad assumption literal 0")
			}
			lits[i] = cnf.Lit(v)
		}
		return lits, nil
	}
	return cnf.ParseAssumeList(spec)
}

// litInts renders assumption literals as plain ints for the meta line.
func litInts(lits []cnf.Lit) []int {
	if len(lits) == 0 {
		return nil
	}
	out := make([]int, len(lits))
	for i, l := range lits {
		out[i] = int(l)
	}
	return out
}

// assumePrecheckConflicts bounds the CDCL precheck that rejects
// UNSAT-under-assumptions requests before a session is priced and queued.
// The bound keeps the precheck cheap on hard instances: when the solver
// exhausts it (Unknown), the request proceeds and the sampler simply
// streams whatever the conditioned space holds — possibly nothing.
const assumePrecheckConflicts = 20000

// metaLine opens every sampling stream: the problem's cache key (usable
// for later submit-by-key requests), the GD batch the session runs, the
// effective target, the projection width (0 = full assignment), and how
// long admission took.
type metaLine struct {
	Type          string  `json:"type"` // "meta"
	Key           string  `json:"key"`
	Batch         int     `json:"batch"`
	Target        int     `json:"target"`
	ProjectedVars int     `json:"projected_vars,omitempty"`
	Assumptions   []int   `json:"assumptions,omitempty"` // canonical pinned literals (specialized streams)
	Resumed       bool    `json:"resumed,omitempty"`
	Delivered     int     `json:"delivered,omitempty"` // solutions already delivered before this request (resume)
	QueueMS       float64 `json:"queue_ms"`
}

// doneLine closes every stream, successful or drained. Under a projection
// ProjectedVars is non-zero and Unique/Delivered count projected-distinct
// solutions (each streamed assignment is a full-model witness of one
// projected class).
type doneLine struct {
	Type          string  `json:"type"` // "done"
	Unique        int     `json:"unique"`
	Delivered     int     `json:"delivered"`
	ProjectedVars int     `json:"projected_vars,omitempty"`
	Calls         int     `json:"calls"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	SolPerSec     float64 `json:"sol_per_sec"`
	Timeout       bool    `json:"timeout"`
	Exhausted     bool    `json:"exhausted"`
	Drained       bool    `json:"drained"`
	// Resume is the opaque one-shot token an interrupted stream can be
	// re-attached with (POST /v1/sample?resume=<token>); empty when the
	// stream completed or the spool could not hold the checkpoint.
	Resume string `json:"resume,omitempty"`
	// ResumeAddr, when set, is the base URL of the peer that adopted this
	// stream's checkpoint: the client should present Resume there, not
	// here. Empty means the token is local to the issuing server.
	ResumeAddr string `json:"resume_addr,omitempty"`
	// Preempted marks a stream that ended because it was preempted off its
	// worker slot and could not be re-admitted (drain or disconnect struck
	// while it was parked); Resume carries its token. Preemptions counts
	// the times this stream was checkpointed off its slot and transparently
	// re-admitted on this same connection.
	Preempted   bool `json:"preempted,omitempty"`
	Preemptions int  `json:"preemptions,omitempty"`
}

// yieldWatch merges the grant's preemption signal and the handoff epoch
// into the single yield channel StreamYield polls at tick boundaries. The
// returned stop func releases the watcher goroutine; nil inputs are simply
// never selected (both nil: no watcher at all).
func yieldWatch(preempt, handoff <-chan struct{}) (<-chan struct{}, func()) {
	if preempt == nil && handoff == nil {
		return nil, func() {}
	}
	yield := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		select {
		case <-preempt:
			close(yield)
		case <-handoff:
			close(yield)
		case <-stop:
		}
	}()
	return yield, func() { close(stop) }
}

// parkEnvelope finds a home for an interrupted stream's checkpoint: the
// first healthy peer that adopts it (the client is redirected there via
// resume_addr), falling back to the local spool.
func (s *Server) parkEnvelope(id int64, env []byte) (token, addr string) {
	if s.peers != nil {
		if tok, peer, ok := s.peers.Handoff(env); ok {
			s.met.handoffSentInc()
			s.log.Info("stream handed to peer", "id", id, "peer", peer)
			return tok, peer
		}
	}
	tok, err := s.spool.Put(env)
	if err != nil {
		s.log.Warn("checkpoint not spooled", "id", id, "err", err)
		return "", ""
	}
	s.met.checkpointed()
	return tok, ""
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	id := s.seq.Add(1)
	if s.draining.Load() {
		s.errorBody(w, http.StatusServiceUnavailable, "server draining", outcomeDraining, "5")
		return
	}

	// The edge-set header wins over the query parameter: when a trusted
	// proxy asserts tenant identity, a client must not be able to
	// impersonate (or fabricate) tenants by appending ?tenant=.
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = r.URL.Query().Get("tenant")
	}
	if tenant == "" {
		tenant = "anon"
	}
	weight := 1
	if v, err := strconv.Atoi(r.URL.Query().Get("weight")); err == nil {
		weight = min(max(v, 1), s.cfg.MaxWeight)
	}
	target := s.cfg.DefaultTarget
	if tv := r.URL.Query().Get("target"); tv != "" {
		v, err := strconv.Atoi(tv)
		if err != nil {
			s.errorBody(w, http.StatusBadRequest, "bad target", outcomeBadRequest, "")
			return
		}
		target = v
	}
	if target > s.cfg.MaxTarget {
		s.errorBody(w, http.StatusBadRequest,
			fmt.Sprintf("target exceeds maximum %d", s.cfg.MaxTarget), outcomeBadRequest, "")
		return
	}
	if target <= 0 {
		// "Unbounded" means the server's cap: every admitted stream is
		// bounded, so its dedup pool is priceable at admission time. The
		// deadline usually ends such a stream first.
		target = s.cfg.MaxTarget
	}
	timeout := s.cfg.DefaultTimeout
	if tv := r.URL.Query().Get("timeout"); tv != "" {
		d, err := time.ParseDuration(tv)
		if err != nil || d <= 0 {
			s.errorBody(w, http.StatusBadRequest, "bad timeout", outcomeBadRequest, "")
			return
		}
		timeout = min(d, s.cfg.MaxTimeout)
	}
	// ?seed= pins the session seed (deterministic replays, differential
	// chaos harnesses); absent, each request gets a distinct seed derived
	// from the server base seed and the request counter.
	seed := s.cfg.Seed + id
	if sv := r.URL.Query().Get("seed"); sv != "" {
		v, err := strconv.ParseInt(sv, 10, 64)
		if err != nil {
			s.errorBody(w, http.StatusBadRequest, "bad seed", outcomeBadRequest, "")
			return
		}
		seed = v
	}
	// ?project= declares the sampling set for this request (comma list or
	// JSON array); it overrides any "c ind" lines in a posted body. Range
	// and duplicate validation follows once the formula is resolved.
	projection, perr := parseProjectionSpec(r.URL.Query().Get("project"))
	if perr != nil {
		s.errorBody(w, http.StatusBadRequest, perr.Error(), outcomeBadRequest, "")
		return
	}
	// ?assume= pins literals for this request: the compiled artifact is
	// re-specialized (never recompiled) under the pins and the session
	// streams only solutions agreeing with them. The specialized artifact
	// is cached and stored under cnf.AssumeKey(baseKey, pins), so repeat
	// assumption sets are memory hits.
	assume, aerr := parseAssumeSpec(r.URL.Query().Get("assume"))
	if aerr != nil {
		s.errorBody(w, http.StatusBadRequest, aerr.Error(), outcomeBadRequest, "")
		return
	}
	assume = cnf.CanonicalAssume(assume)

	// ?resume= re-admits a checkpointed session from the spool: the token
	// is one-shot, its envelope self-contained (formula included), and the
	// restored session is re-priced and re-queued like any fresh request —
	// resumption is a scheduling event, not a side door around admission
	// control.
	var ck *sampling.Checkpoint
	var ckData []byte
	if token := r.URL.Query().Get("resume"); token != "" {
		data, ok := s.spool.Take(token)
		if !ok {
			s.errorBody(w, http.StatusNotFound, "unknown or expired resume token", outcomeNotFound, "")
			return
		}
		c, err := sampling.DecodeCheckpoint(data)
		if err != nil {
			s.log.Warn("bad resume token", "id", id, "tenant", tenant, "err", err)
			s.errorBody(w, http.StatusBadRequest, "bad resume token: "+err.Error(), outcomeBadRequest, "")
			return
		}
		ck, ckData = c, data
	}
	// Tokens are one-shot, but a Take followed by a shed must not destroy
	// the checkpoint: on any transient admission failure the envelope goes
	// back into the spool under the same token (it IS the content hash),
	// so the client's retry-after-backoff still resumes.
	reSpool := func() {
		if ck != nil {
			if _, err := s.spool.Put(ckData); err != nil {
				s.log.Warn("could not re-spool checkpoint after shed", "id", id, "err", err)
			}
		}
	}

	// Resolve the problem: from a resume token's embedded formula, by
	// cache key (no body), or by compiling the posted DIMACS through the
	// shared single-flight cache. New formulas go through the compile
	// gate so a flood of distinct CNFs runs at most Workers compilations
	// at once; already-cached formulas (and waiters on an in-flight
	// compile) bypass it.
	var prob *sampling.Problem
	if ck != nil {
		// The envelope's assumption set is authoritative: a redundant
		// ?assume= must agree with it (the sharded edge repeats the query
		// so the resume routes to the specialized key's owner).
		if len(assume) > 0 && !slices.Equal(assume, ck.Assumptions()) {
			reSpool()
			s.errorBody(w, http.StatusBadRequest,
				"assume does not match the resume envelope's assumption set", outcomeBadRequest, "")
			return
		}
		if p, ok := s.compiler.Lookup(ck.Key()); ok {
			prob = p
		} else {
			// Cold cache (typically: the process restarted between the
			// checkpoint and the resume) — recompile from the envelope,
			// re-specializing when it carries assumptions.
			select {
			case s.compileGate <- struct{}{}:
			case <-r.Context().Done():
				reSpool()
				s.met.request(outcomeCancelled)
				return
			}
			p, err := s.compiler.CompileAssume(ck.Formula(), ck.Assumptions())
			<-s.compileGate
			if err != nil {
				s.errorBody(w, http.StatusBadRequest, "resume compile: "+err.Error(), outcomeBadRequest, "")
				return
			}
			prob = p
		}
	} else if key := r.URL.Query().Get("key"); key != "" {
		p, ok, err := s.compiler.LookupAssume(key, assume)
		if errors.Is(err, core.ErrBadAssume) {
			// The base artifact exists but the pins are invalid for it —
			// the client's error, not a cache miss.
			s.errorBody(w, http.StatusBadRequest, err.Error(), outcomeBadRequest, "")
			return
		}
		if err != nil {
			s.errorBody(w, http.StatusInternalServerError, err.Error(), outcomeStreamErr, "")
			return
		}
		if !ok {
			s.errorBody(w, http.StatusNotFound, "unknown problem key", outcomeNotFound, "")
			return
		}
		// A key identifies a compiled artifact; a request projection rides
		// on the session instead of the cache key (the artifact is
		// projection-independent — only solution identity changes).
		if err := cnf.ValidateProjection(p.Formula().NumVars, projection); err != nil {
			s.errorBody(w, http.StatusBadRequest, err.Error(), outcomeBadRequest, "")
			return
		}
		prob = p
	} else {
		select {
		case s.parseGate <- struct{}{}:
		case <-r.Context().Done():
			s.met.request(outcomeCancelled)
			return
		}
		f, err := cnf.ParseDIMACSLimits(r.Body, s.cfg.Limits)
		switch {
		case errors.Is(err, cnf.ErrLimit):
			<-s.parseGate
			s.errorBody(w, http.StatusRequestEntityTooLarge, err.Error(), outcomeTooLarge, "")
			return
		case err != nil:
			<-s.parseGate
			s.errorBody(w, http.StatusBadRequest, err.Error(), outcomeBadRequest, "")
			return
		}
		// The request projection becomes part of the formula — and so of
		// its content-hash cache key — before any cache probe: a formula's
		// sampling set is part of its identity, and sessions inherit it.
		if projection != nil {
			if err := cnf.ValidateProjection(f.NumVars, projection); err != nil {
				<-s.parseGate
				s.errorBody(w, http.StatusBadRequest, err.Error(), outcomeBadRequest, "")
				return
			}
			f.Projection = projection
		}
		// With pins the cache identity shifts to the specialized key; the
		// warm probe looks there so repeat assumption sets bypass both
		// gates exactly like repeat formulas do.
		probeKey := sampling.HashFormula(f)
		if len(assume) > 0 {
			probeKey = cnf.AssumeKey(probeKey, assume)
		}
		if p, ok := s.compiler.Lookup(probeKey); ok {
			<-s.parseGate
			prob = p
		} else {
			// The parse gate is held until the compile slot is acquired:
			// releasing it earlier would let goroutines blocked on the
			// compile gate accumulate parsed Formulas without bound —
			// formula holders are capped at parseGate+compileGate slots.
			select {
			case s.compileGate <- struct{}{}:
				<-s.parseGate
			case <-r.Context().Done():
				<-s.parseGate
				s.met.request(outcomeCancelled)
				return
			}
			p, err := s.compiler.CompileAssume(f, assume)
			<-s.compileGate
			if err != nil {
				s.errorBody(w, http.StatusBadRequest, "compile: "+err.Error(), outcomeBadRequest, "")
				return
			}
			prob = p
		}
	}

	// UNSAT-under-assumptions precheck: a bounded CDCL probe on the base
	// formula rejects contradictory pin sets with a typed error before the
	// session is priced and queued. Unknown (conflict budget exhausted)
	// admits the request — the stream then honestly reports zero solutions
	// if the space is empty.
	if ck == nil && len(prob.Assumptions()) > 0 {
		sv := sat.NewSolver(prob.Formula(), sat.Options{MaxConflicts: assumePrecheckConflicts})
		if st := sv.SolveAssume(prob.Assumptions()...); st == sat.Unsat {
			s.errorBody(w, http.StatusConflict,
				"formula is unsatisfiable under the given assumptions", outcomeUnsatAssume, "")
			return
		}
	}

	// Admission control. Memory first: reserving before queueing keeps the
	// wait queue free of jobs that could not run anyway, and the ledger
	// covers queued + active sessions so the budget can never be exceeded.
	// The effective projection width is known pre-admission: the explicit
	// spec, or the formula's declared set the session would inherit. A
	// resumed session's shape is fixed by its checkpoint — the batch it
	// was snapshotted with is the batch it restores at — so it is priced
	// at that batch, not at what this server would size a fresh session.
	var batch int
	var est int64
	if ck != nil {
		sn := ck.Snapshot()
		batch = sn.Batch()
		est = s.estimateSession(prob, batch, max(target, sn.UniqueCount()), sn.ProjectionWidth(), sn.Momentum())
	} else {
		effProj := len(projection)
		if effProj == 0 {
			effProj = len(prob.Formula().Projection)
		}
		batch, est = s.sessionShape(prob, target, effProj)
	}
	if !s.reserve(est) {
		reSpool()
		s.log.Warn("shed", "id", id, "tenant", tenant, "reason", "memory",
			"estimate", est, "key", short(prob.Key()))
		s.errorBody(w, http.StatusTooManyRequests, "session memory budget exhausted", outcomeShedMemory, "2")
		return
	}
	// Preemption temporarily gives the reservation (and the grant) back;
	// the flags keep the deferred cleanup balanced across those gaps.
	memHeld := true
	defer func() {
		if memHeld {
			s.unreserve(est)
		}
	}()

	qt0 := time.Now()
	grant, err := s.queue.AcquireGrant(r.Context(), tenant, weight)
	if errors.Is(err, ErrQueueFull) {
		reSpool()
		s.log.Warn("shed", "id", id, "tenant", tenant, "reason", "queue", "key", short(prob.Key()))
		s.errorBody(w, http.StatusTooManyRequests, "queue full", outcomeShedQueue, "1")
		return
	}
	if errors.Is(err, ErrTenantFull) {
		reSpool()
		s.log.Warn("shed", "id", id, "tenant", tenant, "reason", "tenant_queue", "key", short(prob.Key()))
		s.errorBody(w, http.StatusTooManyRequests, "tenant queue share full", outcomeShedTenant, "1")
		return
	}
	if errors.Is(err, ErrDraining) {
		// A drain started while this request waited for a slot: same clean
		// 503 a fresh arrival gets, instead of riding out the grace period
		// blocked in the queue.
		reSpool()
		s.errorBody(w, http.StatusServiceUnavailable, "server draining", outcomeDraining, "5")
		return
	}
	if err != nil {
		// Client disconnected while waiting; nothing can be written.
		reSpool()
		s.met.request(outcomeCancelled)
		return
	}
	defer func() {
		if grant != nil {
			grant.Release()
		}
	}()
	// Pure slot wait — parse/compile time is excluded so operators tuning
	// Workers/QueueDepth see real queueing pressure, not compile cost.
	queueWait := time.Since(qt0)

	var sess *sampling.Session
	if ck != nil {
		// The restored session resumes the checkpointed stream exactly:
		// batch, seed, projection, pool and delivery cursor all come from
		// the envelope (streams are device-independent, so it runs on this
		// server's device whatever the original ran on).
		sess, err = prob.RestoreSession(ck, s.cfg.Device)
	} else {
		sess, err = prob.NewSession(sampling.SessionConfig{
			BatchSize:  batch,
			Seed:       seed,
			Device:     s.cfg.Device,
			Projection: projection, // nil inherits the formula's declared set
		})
	}
	if err != nil {
		s.errorBody(w, http.StatusInternalServerError, err.Error(), outcomeStreamErr, "")
		return
	}
	if ck != nil {
		s.met.resumed()
	}
	projVars := len(sess.Projection())

	// The session context: request deadline + client disconnect (via
	// r.Context) + drain cancellation.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stopDrainWatch := context.AfterFunc(s.sessCtx, cancel)
	defer stopDrainWatch()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Problem-Key", prob.Key())
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeLine := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := writeLine(metaLine{
		Type: "meta", Key: prob.Key(), Batch: batch, Target: target,
		ProjectedVars: projVars,
		Assumptions:   litInts(prob.Assumptions()),
		Resumed:       ck != nil,
		Delivered:     sess.Delivered(),
		QueueMS:       float64(queueWait.Microseconds()) / 1e3,
	}); err != nil {
		s.met.request(outcomeStreamErr)
		return
	}

	// The continuous scheduler can overshoot small targets by a whole
	// retired batch; the service contract is "at most target solutions per
	// request", so the sink stops the stream at exactly the target.
	// Delivery is counted on the session (not this request) so a resumed
	// stream's earlier deliveries count toward its target.
	delivered := 0
	var line []byte // one solution line, reused across the stream
	sink := func(sol []bool) error {
		line = appendSolutionLine(line[:0], sol)
		if _, err := w.Write(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		delivered++
		s.met.addSolutions(1, projVars > 0, time.Now())
		if target > 0 && sess.Delivered() >= target {
			return sampling.Stop
		}
		return nil
	}

	// The stream runs in legs: a leg ends at the target, the deadline, an
	// error — or a yield request (preemption or handoff) at a tick
	// boundary. A preempted leg spools a checkpoint, gives back slot +
	// memory, re-files behind a fresh SFQ tag (behind every starved waiter
	// that triggered it), and continues the same session on this same
	// connection; a handoff leg parks the checkpoint on a peer and ends the
	// stream.
	handoffCh := s.handoff.Load().ch
	var preemptCh <-chan struct{}
	var st sampling.Stats
	var serr error
	var resumeToken, resumeAddr string
	preemptions := 0
	preempted := false
	preemptBroken := false // a failed checkpoint pins the session to its slot
	for {
		preemptCh = nil
		if grant != nil && !preemptBroken {
			preemptCh = grant.Preempt
		}
		yield, stopYield := yieldWatch(preemptCh, handoffCh)
		st, serr = sess.StreamYield(ctx, target, yield, sink)
		stopYield()
		if serr != nil || !st.Yielded {
			break
		}
		isPreempt := false
		select {
		case <-grant.Preempt:
			isPreempt = true
		default:
		}
		env, cerr := sess.Checkpoint()
		if cerr != nil {
			// A session that cannot be checkpointed cannot move: keep
			// streaming and stop watching the signal that fired.
			s.log.Warn("yield checkpoint failed; stream pinned", "id", id, "err", cerr)
			if isPreempt {
				preemptBroken = true
			} else {
				handoffCh = nil
			}
			continue
		}
		if !isPreempt {
			// Handoff: the checkpoint moves to a peer (spool fallback) and
			// the client re-attaches wherever the token landed.
			resumeToken, resumeAddr = s.parkEnvelope(id, env)
			break
		}
		preemptions++
		s.met.preempted()
		// Spool before giving anything up: if the process dies while this
		// request is parked in the queue, the checkpoint survives.
		tok, perr := s.spool.Put(env)
		if perr != nil {
			s.log.Warn("preempt checkpoint not spooled; held in memory only", "id", id, "err", perr)
		}
		s.unreserve(est)
		memHeld = false
		grant.Release()
		grant = nil
		s.log.Info("preempted", "id", id, "tenant", tenant, "delivered", sess.Delivered())
		g2, qerr := s.queue.AcquireGrant(r.Context(), tenant, weight)
		if qerr != nil {
			// Could not get back in (drain, full queue, disconnect): hand
			// the client its token; the checkpoint stays spooled.
			resumeToken, preempted = tok, true
			break
		}
		grant = g2
		if !s.reserve(est) {
			resumeToken, preempted = tok, true
			break
		}
		memHeld = true
		if tok != "" {
			// The session continues here; reclaim the safety copy.
			s.spool.Take(tok)
		}
		// The parked session is quiescent and Checkpoint left it untouched,
		// so the next leg continues it directly.
	}

	drained := s.sessCtx.Err() != nil && st.Timeout
	// A drained stream parks its full state — on a peer when one will
	// adopt it, in the local spool otherwise — and hands the client a
	// resume token on the summary line: the drain preserved the session
	// instead of discarding it, so nothing is lost across the restart.
	if drained && serr == nil && resumeToken == "" {
		if env, cerr := sess.Checkpoint(); cerr != nil {
			s.log.Warn("drain checkpoint failed", "id", id, "err", cerr)
		} else {
			resumeToken, resumeAddr = s.parkEnvelope(id, env)
		}
	}
	outcome := outcomeOK
	if serr != nil {
		outcome = outcomeStreamErr
	} else {
		_ = writeLine(doneLine{
			Type: "done", Unique: st.Unique, Delivered: delivered,
			ProjectedVars: projVars, Calls: st.Calls,
			ElapsedMS: float64(st.Elapsed.Microseconds()) / 1e3,
			SolPerSec: st.Throughput(), Timeout: st.Timeout,
			Exhausted: st.Exhausted, Drained: drained,
			Resume: resumeToken, ResumeAddr: resumeAddr,
			Preempted: preempted, Preemptions: preemptions,
		})
	}
	if projVars > 0 {
		s.met.projectedRequest()
	}
	s.met.request(outcome)
	s.log.Info("sample", "id", id, "tenant", tenant, "key", short(prob.Key()),
		"target", target, "projected", projVars, "unique", st.Unique, "delivered", delivered,
		"queue_ms", queueWait.Milliseconds(), "elapsed_ms", st.Elapsed.Milliseconds(),
		"total_ms", time.Since(t0).Milliseconds(), "timeout", st.Timeout,
		"exhausted", st.Exhausted, "drained", drained, "resumed", ck != nil,
		"preemptions", preemptions, "handed_off", resumeAddr != "",
		"checkpointed", resumeToken != "", "outcome", outcome)
}

// handleHealthz reports liveness plus the capacity hints peers use to pick
// an adoption target: free worker slots, free queue depth, unreserved
// session memory, and whether this server adopts handoffs at all.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.memMu.Lock()
	reserved := s.reserved
	s.memMu.Unlock()
	active, queued := s.queue.Active(), s.queue.Depth()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"active":         active,
		"queued":         queued,
		"free_slots":     max(0, s.cfg.Workers-active),
		"queue_free":     max(0, s.cfg.QueueDepth-queued),
		"mem_free_bytes": max(0, s.cfg.MemoryBudget-reserved),
		"adopt":          !s.draining.Load() && s.cfg.SpoolBudget > 0,
		"uptime":         time.Since(s.met.start).Round(time.Millisecond).String(),
		"version":        "satserved/1",
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.memMu.Lock()
	reserved := s.reserved
	s.memMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	spoolEntries, spoolBytes, spoolEvictions, spoolCorrupt := s.spool.Stats()
	var ss store.Stats
	if s.cfg.Store != nil {
		ss = s.cfg.Store.Stats()
	}
	s.met.Write(w, s.queue.Depth(), s.queue.Active(), reserved, s.cfg.MemoryBudget,
		s.compiler.Stats(), ss, s.draining.Load(),
		spoolEntries, spoolBytes, spoolEvictions, spoolCorrupt)
}

// appendSolutionLine appends sol's NDJSON solution line to dst: byte for
// byte what json.Encoder writes for {"type":"solution","assignment":<the
// 0/1 string>}, since '0' and '1' never need escaping.
func appendSolutionLine(dst []byte, sol []bool) []byte {
	dst = append(dst, `{"type":"solution","assignment":"`...)
	dst = cnf.AppendAssignment(dst, sol)
	return append(dst, "\"}\n"...)
}

// short abbreviates a content-hash key for logs.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
