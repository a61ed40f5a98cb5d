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
	batch = prob.Core().BatchForBudget(s.cfg.Device.Workers(), false, s.cfg.SessionMemory)
	batch = min(max(batch, 64), 8192)
	return batch, s.estimateSession(prob, batch, target, projVars, false)
}

// estimateSession prices one session at an explicit batch — the shared
// tail of sessionShape, called directly by resolveCheckpoint, where the
// batch is not derived from this server's budget but fixed by the
// checkpoint (a resumed session runs at the batch it was snapshotted
// with, so it must be re-priced at that batch against THIS ledger).
func (s *Server) estimateSession(prob *sampling.Problem, batch, target, projVars int, momentum bool) int64 {
	est := prob.Core().MemoryEstimate(s.cfg.Device.Workers(), batch, momentum)
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

// request is one /v1/sample call as it moves through handleSample's
// stages; each stage reads what the earlier ones filled in.
type request struct {
	w       http.ResponseWriter
	r       *http.Request
	flusher http.Flusher // nil when the writer cannot flush
	t0      time.Time
	id      int64

	// parseQuery
	tenant     string
	weight     int
	target     int
	timeout    time.Duration
	seed       int64
	projection []int     // nil inherits the formula's declared set
	assume     []cnf.Lit // canonical

	// resolve: ck and ckData are set once a ?resume= token has been taken
	// from the spool and decoded.
	ck     *sampling.Checkpoint
	ckData []byte
	prob   *sampling.Problem

	// admit: the session's GD batch, its ledger reservation and its worker
	// slot. Preemption gives the last two back between legs; release
	// returns whatever is still held.
	batch     int
	est       int64
	memHeld   bool
	grant     *Grant
	queueWait time.Duration

	// openSession, streamLegs
	sess        *sampling.Session
	projVars    int
	delivered   int
	st          sampling.Stats
	serr        error
	resumeToken string
	resumeAddr  string
	preemptions int
	preempted   bool
}

// refusal ends a request before its stream opens with errorBody's status,
// message, outcome label and Retry-After. Status 0 is a client already
// gone: the outcome is counted and nothing is written. spent marks a
// refusal caused by the resume envelope itself, which is not put back
// into the spool.
type refusal struct {
	status     int
	msg        string
	outcome    string
	retryAfter string
	spent      bool
}

var (
	refuseGone     = &refusal{outcome: outcomeCancelled}
	refuseDraining = &refusal{status: http.StatusServiceUnavailable, msg: "server draining",
		outcome: outcomeDraining, retryAfter: "5"}
)

// queueRefusals maps AcquireGrant's typed errors to their refusals; any
// other error is a client that disconnected while queued.
var queueRefusals = []struct {
	err error
	ref *refusal
}{
	{ErrQueueFull, &refusal{status: http.StatusTooManyRequests, msg: "queue full", outcome: outcomeShedQueue, retryAfter: "1"}},
	{ErrTenantFull, &refusal{status: http.StatusTooManyRequests, msg: "tenant queue share full", outcome: outcomeShedTenant, retryAfter: "1"}},
	// A drain started while the request waited for a slot: the same clean
	// 503 a fresh arrival gets, instead of riding out the grace period.
	{ErrDraining, refuseDraining},
}

func badRequest(msg string) *refusal {
	return &refusal{status: http.StatusBadRequest, msg: msg, outcome: outcomeBadRequest}
}

// errClientGone reports a client that disconnected while its request
// waited at the compile gate.
var errClientGone = errors.New("server: client gone")

// handleSample serves POST /v1/sample as a fixed sequence of stages over
// one request. A stage before the stream opens may refuse the request,
// which then ends through the one refusal exit; release returns the
// ledger reservation and worker slot on every path.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	q := &request{w: w, r: r, t0: time.Now(), id: s.seq.Add(1)}
	defer s.release(q)
	for _, stage := range []func(*request) *refusal{
		s.parseQuery, s.resolve, s.precheck, s.admit, s.openSession,
	} {
		if ref := stage(q); ref != nil {
			s.refuse(q, ref)
			return
		}
	}
	// The session context: request deadline + client disconnect (via
	// r.Context) + drain cancellation.
	ctx, cancel := context.WithTimeout(r.Context(), q.timeout)
	defer cancel()
	stopDrainWatch := context.AfterFunc(s.sessCtx, cancel)
	defer stopDrainWatch()
	if err := s.writeMeta(q); err != nil {
		s.met.request(outcomeStreamErr)
		return
	}
	s.streamLegs(ctx, q)
	s.finish(q)
}

// refuse is the one exit for a request refused before its stream opens.
// Tokens are one-shot, but a Take followed by a refusal must not destroy
// the checkpoint: unless the envelope itself is at fault, it goes back
// into the spool under the same token (the token IS the content hash), so
// the client's retry after backoff still resumes.
func (s *Server) refuse(q *request, ref *refusal) {
	if q.ck != nil && !ref.spent {
		if _, err := s.spool.Put(q.ckData); err != nil {
			s.log.Warn("could not re-spool checkpoint after refusal", "id", q.id, "err", err)
		}
	}
	if ref.status == http.StatusTooManyRequests {
		s.log.Warn("shed", "id", q.id, "tenant", q.tenant, "reason", ref.outcome,
			"estimate", q.est, "key", short(q.prob.Key()))
	}
	if ref.status == 0 {
		s.met.request(ref.outcome)
		return
	}
	s.errorBody(q.w, ref.status, ref.msg, ref.outcome, ref.retryAfter)
}

// release returns what the request still holds: its worker slot and its
// ledger reservation.
func (s *Server) release(q *request) {
	if q.grant != nil {
		q.grant.Release()
		q.grant = nil
	}
	if q.memHeld {
		s.unreserve(q.est)
		q.memHeld = false
	}
}

// parseQuery reads the request's tenant, weight, target, deadline, seed,
// projection and assumptions. A draining server refuses everything here.
func (s *Server) parseQuery(q *request) *refusal {
	if s.draining.Load() {
		return refuseDraining
	}
	query := q.r.URL.Query()
	// The edge-set header wins over the query parameter: when a trusted
	// proxy asserts tenant identity, a client must not be able to
	// impersonate (or fabricate) tenants by appending ?tenant=.
	q.tenant = q.r.Header.Get("X-Tenant")
	if q.tenant == "" {
		q.tenant = query.Get("tenant")
	}
	if q.tenant == "" {
		q.tenant = "anon"
	}
	q.weight = 1
	if v, err := strconv.Atoi(query.Get("weight")); err == nil {
		q.weight = min(max(v, 1), s.cfg.MaxWeight)
	}
	q.target = s.cfg.DefaultTarget
	if tv := query.Get("target"); tv != "" {
		v, err := strconv.Atoi(tv)
		if err != nil {
			return badRequest("bad target")
		}
		q.target = v
	}
	if q.target > s.cfg.MaxTarget {
		return badRequest(fmt.Sprintf("target exceeds maximum %d", s.cfg.MaxTarget))
	}
	if q.target <= 0 {
		// "Unbounded" means the server's cap: every admitted stream is
		// bounded, so its dedup pool is priceable at admission time. The
		// deadline usually ends such a stream first.
		q.target = s.cfg.MaxTarget
	}
	q.timeout = s.cfg.DefaultTimeout
	if tv := query.Get("timeout"); tv != "" {
		d, err := time.ParseDuration(tv)
		if err != nil || d <= 0 {
			return badRequest("bad timeout")
		}
		q.timeout = min(d, s.cfg.MaxTimeout)
	}
	// ?seed= pins the session seed (deterministic replays, differential
	// chaos harnesses); absent, each request gets a distinct seed derived
	// from the server base seed and the request counter.
	q.seed = s.cfg.Seed + q.id
	if sv := query.Get("seed"); sv != "" {
		v, err := strconv.ParseInt(sv, 10, 64)
		if err != nil {
			return badRequest("bad seed")
		}
		q.seed = v
	}
	// ?project= declares the sampling set for this request; it overrides
	// any "c ind" lines in a posted body. Range and duplicate validation
	// follows once the formula is resolved.
	var err error
	if q.projection, err = cnf.ParseProjectionList(query.Get("project")); err != nil {
		return badRequest(err.Error())
	}
	// ?assume= pins literals for this request: the compiled artifact is
	// re-specialized (never recompiled) under the pins and the session
	// streams only solutions agreeing with them. The specialized artifact
	// is cached and stored under cnf.AssumeKey(baseKey, pins), so repeat
	// assumption sets are memory hits.
	assume, err := cnf.ParseAssumeList(query.Get("assume"))
	if err != nil {
		return badRequest(err.Error())
	}
	q.assume = cnf.CanonicalAssume(assume)
	return nil
}

// resolve finds the request's compiled problem: from a ?resume= token's
// envelope, by ?key= (no body), or from the posted DIMACS.
func (s *Server) resolve(q *request) *refusal {
	if token := q.r.URL.Query().Get("resume"); token != "" {
		return s.resolveResume(q, token)
	}
	if key := q.r.URL.Query().Get("key"); key != "" {
		return s.resolveKey(q, key)
	}
	return s.resolveBody(q)
}

// resolveResume re-admits a checkpointed session from the spool: the token
// is one-shot, its envelope self-contained (formula included), and the
// restored session is re-priced and re-queued like any fresh request —
// resumption is a scheduling event, not a side door around admission
// control.
func (s *Server) resolveResume(q *request, token string) *refusal {
	data, ok := s.spool.Take(token)
	if !ok {
		return &refusal{status: http.StatusNotFound, msg: "unknown or expired resume token", outcome: outcomeNotFound}
	}
	ck, err := sampling.DecodeCheckpoint(data)
	if err != nil {
		s.log.Warn("bad resume token", "id", q.id, "tenant", q.tenant, "err", err)
		return badRequest("bad resume token: " + err.Error())
	}
	q.ck, q.ckData = ck, data
	// The envelope's assumption set is authoritative: a redundant ?assume=
	// must agree with it (the sharded edge repeats the query so the resume
	// routes to the specialized key's owner).
	if len(q.assume) > 0 && !slices.Equal(q.assume, ck.Assumptions()) {
		return badRequest("assume does not match the resume envelope's assumption set")
	}
	q.prob, q.batch, q.est, err = s.resolveCheckpoint(q.r.Context(), ck, q.target)
	if errors.Is(err, errClientGone) {
		return refuseGone
	}
	if err != nil {
		return &refusal{status: http.StatusBadRequest, msg: "resume compile: " + err.Error(), outcome: outcomeBadRequest, spent: true}
	}
	return nil
}

// resolveCheckpoint is the one checkpoint-to-problem path, shared by
// ?resume= and /v1/adopt. The problem is the artifact cached under the
// envelope's key (the specialized key when it carries assumptions), or on
// a cold cache — typically the process restarted between checkpoint and
// resume — CompileAssume of the envelope's formula and assumptions under
// the compile gate. The session is priced at the batch it was snapshotted
// with (a restored session runs at that batch, whatever this server would
// size a fresh one at) and its pool at max(target, unique); adopt passes
// target 0.
func (s *Server) resolveCheckpoint(ctx context.Context, ck *sampling.Checkpoint, target int) (prob *sampling.Problem, batch int, est int64, err error) {
	prob, ok := s.compiler.Lookup(ck.Key())
	if !ok {
		if prob, err = s.compileGated(ctx, ck.Formula(), ck.Assumptions(), false); err != nil {
			return nil, 0, 0, err
		}
	}
	sn := ck.Snapshot()
	batch = sn.Batch()
	est = s.estimateSession(prob, batch, max(target, sn.UniqueCount()), sn.ProjectionWidth(), sn.Momentum())
	return prob, batch, est, nil
}

// compileGated is the one compile-gate acquire/release: CompileAssume runs
// once a compile slot is free, so a flood of distinct CNFs runs at most
// Workers compilations at once (cache hits never get here). A posted-body
// caller holds a parse-gate slot (parsing) until the compile slot is
// acquired: releasing it earlier would let goroutines blocked here
// accumulate parsed Formulas without bound — formula holders are capped
// at parseGate+compileGate slots.
func (s *Server) compileGated(ctx context.Context, f *cnf.Formula, assume []cnf.Lit, parsing bool) (*sampling.Problem, error) {
	acquired := false
	select {
	case s.compileGate <- struct{}{}:
		acquired = true
	case <-ctx.Done():
	}
	if parsing {
		<-s.parseGate
	}
	if !acquired {
		return nil, errClientGone
	}
	defer func() { <-s.compileGate }()
	return s.compiler.CompileAssume(f, assume)
}

// resolveKey serves a submit-by-key request from the compile cache and its
// durable tier, specialized under the request's pins.
func (s *Server) resolveKey(q *request, key string) *refusal {
	p, ok, err := s.compiler.LookupAssume(key, q.assume)
	switch {
	case errors.Is(err, core.ErrBadAssume):
		// The base artifact exists but the pins are invalid for it — the
		// client's error, not a cache miss.
		return badRequest(err.Error())
	case err != nil:
		return &refusal{status: http.StatusInternalServerError, msg: err.Error(), outcome: outcomeStreamErr}
	case !ok:
		return &refusal{status: http.StatusNotFound, msg: "unknown problem key", outcome: outcomeNotFound}
	}
	// A key identifies a compiled artifact; a request projection rides on
	// the session instead of the cache key (the artifact is
	// projection-independent — only solution identity changes).
	if err := cnf.ValidateProjection(p.Formula().NumVars, q.projection); err != nil {
		return badRequest(err.Error())
	}
	q.prob = p
	return nil
}

// resolveBody parses the posted DIMACS under the parse gate and resolves it
// through the shared single-flight cache, compiling on a miss.
func (s *Server) resolveBody(q *request) *refusal {
	select {
	case s.parseGate <- struct{}{}:
	case <-q.r.Context().Done():
		return refuseGone
	}
	f, err := cnf.ParseDIMACSLimits(q.r.Body, s.cfg.Limits)
	if errors.Is(err, cnf.ErrLimit) {
		<-s.parseGate
		return &refusal{status: http.StatusRequestEntityTooLarge, msg: err.Error(), outcome: outcomeTooLarge}
	}
	// The request projection becomes part of the formula — and so of its
	// content-hash cache key — before any cache probe: a formula's
	// sampling set is part of its identity, and sessions inherit it.
	if err == nil {
		err = cnf.ValidateProjection(f.NumVars, q.projection)
	}
	if err != nil {
		<-s.parseGate
		return badRequest(err.Error())
	}
	if q.projection != nil {
		f.Projection = q.projection
	}
	// With pins the cache identity shifts to the specialized key; the warm
	// probe looks there so repeat assumption sets bypass both gates exactly
	// like repeat formulas do.
	if p, ok := s.compiler.Lookup(cnf.AssumeKey(sampling.HashFormula(f), q.assume)); ok {
		<-s.parseGate
		q.prob = p
		return nil
	}
	p, err := s.compileGated(q.r.Context(), f, q.assume, true)
	if errors.Is(err, errClientGone) {
		return refuseGone
	}
	if err != nil {
		return badRequest("compile: " + err.Error())
	}
	q.prob = p
	return nil
}

// precheck rejects UNSAT-under-assumptions requests: a bounded CDCL probe
// on the base formula refuses contradictory pin sets with a typed error
// before the session is priced and queued. Unknown (conflict budget
// exhausted) admits the request — the stream then honestly reports zero
// solutions if the space is empty. A resumed session is not re-probed.
func (s *Server) precheck(q *request) *refusal {
	if q.ck != nil || len(q.prob.Assumptions()) == 0 {
		return nil
	}
	sv := sat.NewSolver(q.prob.Formula(), sat.Options{MaxConflicts: assumePrecheckConflicts})
	if sv.SolveAssume(q.prob.Assumptions()...) == sat.Unsat {
		return &refusal{status: http.StatusConflict, msg: "formula is unsatisfiable under the given assumptions",
			outcome: outcomeUnsatAssume}
	}
	return nil
}

// admit prices the session and admits it. Memory first: reserving before
// queueing keeps the wait queue free of jobs that could not run anyway,
// and the ledger covers queued + active sessions so the budget can never
// be exceeded. Then a worker slot, in weighted-fair order.
func (s *Server) admit(q *request) *refusal {
	if q.ck == nil {
		// The effective projection width is known pre-admission: the
		// explicit spec, or the formula's declared set the session would
		// inherit. (resolveCheckpoint priced a resume at its checkpoint's
		// batch.)
		effProj := len(q.projection)
		if effProj == 0 {
			effProj = len(q.prob.Formula().Projection)
		}
		q.batch, q.est = s.sessionShape(q.prob, q.target, effProj)
	}
	if !s.reserve(q.est) {
		return &refusal{status: http.StatusTooManyRequests, msg: "session memory budget exhausted", outcome: outcomeShedMemory, retryAfter: "2"}
	}
	q.memHeld = true
	qt0 := time.Now()
	grant, err := s.queue.AcquireGrant(q.r.Context(), q.tenant, q.weight)
	if err != nil {
		for _, qr := range queueRefusals {
			if errors.Is(err, qr.err) {
				return qr.ref
			}
		}
		return refuseGone
	}
	q.grant = grant
	// Pure slot wait — parse/compile time is excluded so operators tuning
	// Workers/QueueDepth see real queueing pressure, not compile cost.
	q.queueWait = time.Since(qt0)
	return nil
}

// openSession starts the request's session: fresh at the priced batch, or
// restored from the checkpoint — batch, seed, projection, pool and
// delivery cursor all come from the envelope (streams are
// device-independent, so it runs on this server's device whatever the
// original ran on).
func (s *Server) openSession(q *request) *refusal {
	var err error
	if q.ck != nil {
		q.sess, err = q.prob.RestoreSession(q.ck, s.cfg.Device)
	} else {
		q.sess, err = q.prob.NewSession(sampling.SessionConfig{
			BatchSize:  q.batch,
			Seed:       q.seed,
			Device:     s.cfg.Device,
			Projection: q.projection,
		})
	}
	if err != nil {
		return &refusal{status: http.StatusInternalServerError, msg: err.Error(), outcome: outcomeStreamErr, spent: true}
	}
	if q.ck != nil {
		s.met.inc(&s.met.resumes)
	}
	q.projVars = len(q.sess.Projection())
	return nil
}

// writeMeta opens the NDJSON stream: the response head, then the meta line.
func (s *Server) writeMeta(q *request) error {
	q.w.Header().Set("Content-Type", "application/x-ndjson")
	q.w.Header().Set("X-Problem-Key", q.prob.Key())
	q.w.WriteHeader(http.StatusOK)
	q.flusher, _ = q.w.(http.Flusher)
	return q.writeLine(metaLine{
		Type: "meta", Key: q.prob.Key(), Batch: q.batch, Target: q.target,
		ProjectedVars: q.projVars,
		Assumptions:   litInts(q.prob.Assumptions()),
		Resumed:       q.ck != nil,
		Delivered:     q.sess.Delivered(),
		QueueMS:       float64(q.queueWait.Microseconds()) / 1e3,
	})
}

// writeLine writes one JSON line and flushes it to the client.
func (q *request) writeLine(v any) error {
	if err := json.NewEncoder(q.w).Encode(v); err != nil {
		return err
	}
	if q.flusher != nil {
		q.flusher.Flush()
	}
	return nil
}

// streamLegs runs the session in legs: a leg ends at the target, the
// deadline, an error — or a yield request (preemption or handoff) at a
// tick boundary. A preempted leg re-files the request (requeue) and
// continues the same session on this same connection; a handoff leg parks
// the checkpoint on a peer and ends the stream.
func (s *Server) streamLegs(ctx context.Context, q *request) {
	// The continuous scheduler can overshoot small targets by a whole
	// retired batch; the service contract is "at most target solutions per
	// request", so the sink stops the stream at exactly the target.
	// Delivery is counted on the session (not this request) so a resumed
	// stream's earlier deliveries count toward its target.
	var line []byte // one solution line, reused across the stream
	sink := func(sol []bool) error {
		line = appendSolutionLine(line[:0], sol)
		if _, err := q.w.Write(line); err != nil {
			return err
		}
		if q.flusher != nil {
			q.flusher.Flush()
		}
		q.delivered++
		s.met.addSolutions(1, q.projVars > 0, time.Now())
		if q.target > 0 && q.sess.Delivered() >= q.target {
			return sampling.Stop
		}
		return nil
	}
	handoffCh := s.handoff.Load().ch
	preemptBroken := false // a failed checkpoint pins the session to its slot
	for {
		var preemptCh <-chan struct{}
		if !preemptBroken {
			preemptCh = q.grant.Preempt
		}
		yield, stopYield := yieldWatch(preemptCh, handoffCh)
		q.st, q.serr = q.sess.StreamYield(ctx, q.target, yield, sink)
		stopYield()
		if q.serr != nil || !q.st.Yielded {
			return
		}
		select {
		case <-q.grant.Preempt:
		default:
			// Handoff: the checkpoint moves to a peer (spool fallback) and
			// the client re-attaches wherever the token landed. A session
			// that cannot be checkpointed keeps streaming here and stops
			// watching the handoff signal.
			if s.checkpointPark(q, "handoff") {
				return
			}
			handoffCh = nil
			continue
		}
		env, err := q.sess.Checkpoint()
		if err != nil {
			s.log.Warn("preempt checkpoint failed; stream pinned", "id", q.id, "err", err)
			preemptBroken = true
			continue
		}
		if !s.requeue(q, env) {
			return
		}
	}
}

// requeue is the preemption leg. The checkpoint is spooled before anything
// is given up, so it survives a process death while the request is parked
// in the queue; then slot and memory go back and the request re-files
// behind a fresh SFQ tag — behind every starved waiter that triggered the
// preemption. It reports false when the request could not get back in
// (drain, full queue, disconnect, memory): the client gets the spooled
// token. On true the parked session, quiescent and untouched by
// Checkpoint, continues in the next leg.
func (s *Server) requeue(q *request, env []byte) bool {
	q.preemptions++
	s.met.inc(&s.met.preemptions)
	tok, err := s.spool.Put(env)
	if err != nil {
		s.log.Warn("preempt checkpoint not spooled; held in memory only", "id", q.id, "err", err)
	}
	s.release(q)
	s.log.Info("preempted", "id", q.id, "tenant", q.tenant, "delivered", q.sess.Delivered())
	if q.grant, err = s.queue.AcquireGrant(q.r.Context(), q.tenant, q.weight); err == nil {
		q.memHeld = s.reserve(q.est)
	}
	if !q.memHeld {
		q.resumeToken, q.preempted = tok, true
		return false
	}
	if tok != "" {
		// The session continues here; reclaim the safety copy.
		s.spool.Take(tok)
	}
	return true
}

// checkpointPark is the one checkpoint-then-park step of the handoff and
// drain legs: it checkpoints the session and finds the envelope a home —
// the first healthy peer that adopts it (the client is redirected there
// via resume_addr), else the local spool. It reports false when the
// session could not be checkpointed.
func (s *Server) checkpointPark(q *request, leg string) bool {
	env, err := q.sess.Checkpoint()
	if err != nil {
		s.log.Warn(leg+" checkpoint failed", "id", q.id, "err", err)
		return false
	}
	if s.peers != nil {
		if tok, peer, ok := s.peers.Handoff(env); ok {
			s.met.inc(&s.met.handoffSent)
			s.log.Info("stream handed to peer", "id", q.id, "peer", peer)
			q.resumeToken, q.resumeAddr = tok, peer
			return true
		}
	}
	if q.resumeToken, err = s.spool.Put(env); err != nil {
		s.log.Warn("checkpoint not spooled", "id", q.id, "err", err)
		return true
	}
	s.met.inc(&s.met.checkpoints)
	return true
}

// finish closes the stream. A drained stream parks its full state and
// hands the client a resume token on the done line: the drain preserved
// the session instead of discarding it, so nothing is lost across the
// restart.
func (s *Server) finish(q *request) {
	drained := s.sessCtx.Err() != nil && q.st.Timeout
	if drained && q.serr == nil && q.resumeToken == "" {
		s.checkpointPark(q, "drain")
	}
	outcome := outcomeOK
	if q.serr != nil {
		outcome = outcomeStreamErr
	} else {
		_ = q.writeLine(doneLine{
			Type: "done", Unique: q.st.Unique, Delivered: q.delivered,
			ProjectedVars: q.projVars, Calls: q.st.Calls,
			ElapsedMS: float64(q.st.Elapsed.Microseconds()) / 1e3,
			SolPerSec: q.st.Throughput(), Timeout: q.st.Timeout,
			Exhausted: q.st.Exhausted, Drained: drained,
			Resume: q.resumeToken, ResumeAddr: q.resumeAddr,
			Preempted: q.preempted, Preemptions: q.preemptions,
		})
	}
	if q.projVars > 0 {
		s.met.inc(&s.met.projRequests)
	}
	s.met.request(outcome)
	s.log.Info("sample", "id", q.id, "tenant", q.tenant, "key", short(q.prob.Key()),
		"target", q.target, "projected", q.projVars, "unique", q.st.Unique, "delivered", q.delivered,
		"queue_ms", q.queueWait.Milliseconds(), "elapsed_ms", q.st.Elapsed.Milliseconds(),
		"total_ms", time.Since(q.t0).Milliseconds(), "timeout", q.st.Timeout,
		"exhausted", q.st.Exhausted, "drained", drained, "resumed", q.ck != nil,
		"preemptions", q.preemptions, "handed_off", q.resumeAddr != "",
		"checkpointed", q.resumeToken != "", "outcome", outcome)
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
