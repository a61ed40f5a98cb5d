// Command satsharded is the fleet front for satserved replicas: a
// key-routing reverse proxy that makes N replicas look like one server
// while keeping each compiled problem hot on as few replicas as possible.
//
// Every /v1/sample request is mapped to its problem key — the same
// content hash (sampling.HashFormula) the replicas' compile caches and
// the shared -store directory are keyed by — and routed via consistent
// hashing over the live replica set:
//
//   - ?key= requests route by that key directly (no body needed);
//   - DIMACS bodies are parsed at the edge (bounded by -maxbody) and
//     hashed exactly as the replica will hash them, ?project= folded in,
//     so the proxy and the fleet agree on the key byte-for-byte;
//   - ?resume= legs prefer the replica named by ?resume_addr= when the
//     client forwards it, and otherwise try replicas in ring order — a
//     replica without the token answers 404 without consuming anything,
//     so the probe is safe and the stream continues wherever the
//     checkpoint actually lives.
//
// Replicas are health-probed via GET /healthz (the satserved capacity
// hints); a dead or draining replica drops out of the ring and its keys
// reassign to the ring successor. A connect failure mid-request reroutes
// to the next candidate immediately — combined with a shared -store
// directory the successor loads the dead replica's compiled artifact
// from disk instead of recompiling it, so failover costs a decode, not a
// compile. GET /metrics serves the fleet-aggregate satserved_* series
// (summed across replicas) plus the proxy's own satsharded_* counters;
// GET /healthz reports per-replica health.
//
// Usage:
//
//	satsharded -replicas http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	           [-addr :8079] [-probe 1s] [-maxbody 8388608] \
//	           [-logjson] [-portfile path]
//
// Trust model: satsharded is an interior fleet component, not an
// authenticating edge. It forwards tenant headers and query strings
// verbatim and adds none of its own; deployments facing anonymous
// clients still need an authenticating gateway in front (see the
// internal/server package doc on tenant identity).
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cnf"
	"repro/internal/sampling"
)

// vnodes is how many ring positions each replica occupies. 64 keeps the
// key split within a few percent of even for small fleets without making
// ring rebuilds noticeable.
const vnodes = 64

// replicaHealth is the last probed state of one replica.
type replicaHealth struct {
	ok        bool
	freeSlots int
	queueFree int
}

// proxy is the satsharded state: the consistent-hash ring over the
// configured replicas plus their live health.
type proxy struct {
	replicas []string
	client   *http.Client
	maxBody  int64
	limits   cnf.ParseLimits
	log      *slog.Logger

	ring []ringSlot // sorted by point

	mu     sync.Mutex
	health map[string]replicaHealth

	requests  atomic.Int64 // proxied /v1/sample requests
	reroutes  atomic.Int64 // candidate failovers (connect failures, resume 404 probes)
	exhausted atomic.Int64 // requests that ran out of candidates
	rr        atomic.Int64 // round-robin cursor for keyless requests

	stop     chan struct{}
	stopOnce sync.Once
}

// ringSlot is one virtual node: a point on the hash circle owned by a
// replica.
type ringSlot struct {
	point uint64
	base  string
}

func newProxy(replicas []string, maxBody int64, log *slog.Logger) *proxy {
	p := &proxy{
		replicas: replicas,
		// No overall timeout: sampling streams are long-lived by design.
		// The dialer bounds how long a dead replica can stall a reroute.
		client: &http.Client{Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 16,
		}},
		maxBody: maxBody,
		limits:  cnf.LimitsForBytes(maxBody),
		log:     log,
		health:  map[string]replicaHealth{},
		stop:    make(chan struct{}),
	}
	for _, base := range replicas {
		for v := 0; v < vnodes; v++ {
			p.ring = append(p.ring, ringSlot{point: ringPoint(fmt.Sprintf("%s#%d", base, v)), base: base})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].point < p.ring[j].point })
	return p
}

// ringPoint hashes a string onto the ring circle.
func ringPoint(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// probeLoop keeps the health map fresh, mirroring satserved's peerSet.
func (p *proxy) probeLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	p.probeAll()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

func (p *proxy) probeAll() {
	for _, base := range p.replicas {
		h := p.probe(base)
		p.mu.Lock()
		prev := p.health[base]
		p.health[base] = h
		p.mu.Unlock()
		if prev.ok != h.ok {
			p.log.Info("replica health changed", "replica", base, "healthy", h.ok)
		}
	}
}

func (p *proxy) probe(base string) replicaHealth {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	resp, err := p.client.Do(req)
	if err != nil {
		return replicaHealth{}
	}
	defer resp.Body.Close()
	var body struct {
		Status    string `json:"status"`
		FreeSlots int    `json:"free_slots"`
		QueueFree int    `json:"queue_free"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return replicaHealth{}
	}
	return replicaHealth{ok: body.Status == "ok", freeSlots: body.FreeSlots, queueFree: body.QueueFree}
}

// markDown records a replica failure observed in the request path, so
// subsequent routing skips it before the next probe tick confirms.
func (p *proxy) markDown(base string) {
	p.mu.Lock()
	p.health[base] = replicaHealth{}
	p.mu.Unlock()
}

// owner returns the ring successor of key's point: the replica that owns
// the key while healthy.
func (p *proxy) owner(key string) int {
	point := ringPoint(key)
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].point >= point })
	if i == len(p.ring) {
		i = 0
	}
	return i
}

// candidates returns the distinct replicas to try for key, in order:
// walking the ring from the key's owner, healthy replicas first, with
// currently-unhealthy ones kept at the tail as a last resort (probe state
// can be a tick stale in both directions). preferred, when it names a
// configured replica, is tried before everything — the resume_addr path.
// A keyless request ("" key) rotates round-robin instead of hammering one
// ring position.
func (p *proxy) candidates(key, preferred string) []string {
	var walk []string
	seen := map[string]bool{}
	start := 0
	if key != "" {
		start = p.owner(key)
	} else if len(p.ring) > 0 {
		start = int(p.rr.Add(1)) * vnodes % len(p.ring)
	}
	for i := 0; i < len(p.ring) && len(walk) < len(p.replicas); i++ {
		base := p.ring[(start+i)%len(p.ring)].base
		if !seen[base] {
			seen[base] = true
			walk = append(walk, base)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var healthy, down []string
	for _, base := range walk {
		if base == preferred {
			continue
		}
		if p.health[base].ok {
			healthy = append(healthy, base)
		} else {
			down = append(down, base)
		}
	}
	out := make([]string, 0, len(p.replicas))
	if seen[preferred] {
		out = append(out, preferred)
	}
	out = append(out, healthy...)
	return append(out, down...)
}

// routeKey derives the request's problem key: ?key= (with ?assume= folded
// in via cnf.AssumeKey, the same derivation the replica's compiler uses),
// else the content hash of the posted DIMACS with ?project= and ?assume=
// folded in — the exact identity the replica will compute, so a
// specialized artifact is owned by one replica no matter how the request
// arrives. A body or assumption spec the proxy cannot parse routes
// keyless; the replica owns the error reply.
func (p *proxy) routeKey(r *http.Request, body []byte) string {
	assume, aerr := cnf.ParseAssumeList(r.URL.Query().Get("assume"))
	if aerr != nil {
		return ""
	}
	fold := func(base string) string {
		return cnf.AssumeKey(base, cnf.CanonicalAssume(assume))
	}
	if key := r.URL.Query().Get("key"); key != "" {
		return fold(key)
	}
	if len(body) == 0 {
		return ""
	}
	f, err := cnf.ParseDIMACSLimits(bytes.NewReader(body), p.limits)
	if err != nil {
		return ""
	}
	vars, perr := cnf.ParseProjectionList(r.URL.Query().Get("project"))
	if perr != nil || cnf.ValidateProjection(f.NumVars, vars) != nil {
		return ""
	}
	if vars != nil {
		f.Projection = vars
	}
	return fold(sampling.HashFormula(f))
}

func (p *proxy) handleSample(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, p.maxBody+1))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if int64(len(body)) > p.maxBody {
		errorJSON(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", p.maxBody))
		return
	}
	isResume := r.URL.Query().Get("resume") != ""
	preferred := normalizeBase(r.URL.Query().Get("resume_addr"))
	key := p.routeKey(r, body)
	order := p.candidates(key, preferred)
	if len(order) == 0 {
		errorJSON(w, http.StatusServiceUnavailable, "no replicas configured")
		return
	}

	for i, base := range order {
		req, rerr := http.NewRequestWithContext(r.Context(), http.MethodPost,
			base+"/v1/sample?"+r.URL.RawQuery, bytes.NewReader(body))
		if rerr != nil {
			errorJSON(w, http.StatusInternalServerError, rerr.Error())
			return
		}
		req.Header = r.Header.Clone()
		resp, derr := p.client.Do(req)
		if derr != nil {
			// Connect/transport failure before any response: the replica is
			// gone — drop it from routing now and try the ring successor.
			p.markDown(base)
			p.reroutes.Add(1)
			p.log.Warn("replica unreachable; rerouting", "replica", base, "err", derr)
			continue
		}
		// A resume token lives on exactly one replica; a 404 from the wrong
		// one consumed nothing, so probe the next candidate.
		if isResume && resp.StatusCode == http.StatusNotFound && i < len(order)-1 {
			resp.Body.Close()
			p.reroutes.Add(1)
			continue
		}
		p.relay(w, r, resp, base)
		return
	}
	p.exhausted.Add(1)
	errorJSON(w, http.StatusBadGateway, "no replica reachable for this key")
}

// relay streams one replica response back to the client, flushing per
// write so NDJSON lines flow as the replica produces them. Mid-stream
// replica death surfaces to the client as a truncated stream — exactly
// what the fleet client's rotation + resume handling expects.
func (p *proxy) relay(w http.ResponseWriter, r *http.Request, resp *http.Response, base string) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Routed-To", base)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			// The upstream request shares the client's context, so a client
			// disconnect also surfaces here as a non-EOF read error — that is
			// the client's doing, not the replica's, and must not poison the
			// replica's health.
			if !errors.Is(rerr, io.EOF) && r.Context().Err() == nil {
				p.log.Warn("replica stream ended abnormally", "replica", base, "err", rerr)
				p.markDown(base)
			}
			return
		}
	}
}

// handleHealthz reports fleet liveness: ok while at least one replica is
// healthy, plus the per-replica breakdown.
func (p *proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type rep struct {
		Base      string `json:"base"`
		Healthy   bool   `json:"healthy"`
		FreeSlots int    `json:"free_slots"`
		QueueFree int    `json:"queue_free"`
	}
	reps := make([]rep, 0, len(p.replicas))
	healthy := 0
	p.mu.Lock()
	for _, base := range p.replicas {
		h := p.health[base]
		if h.ok {
			healthy++
		}
		reps = append(reps, rep{Base: base, Healthy: h.ok, FreeSlots: h.freeSlots, QueueFree: h.queueFree})
	}
	p.mu.Unlock()
	status, code := "ok", http.StatusOK
	if healthy == 0 {
		status, code = "unavailable", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"healthy":  healthy,
		"replicas": reps,
		"version":  "satsharded/1",
	})
}

// handleMetrics scrapes every reachable replica and serves the summed
// satserved_* series (counters and gauges alike sum meaningfully across a
// fleet: totals stay totals, entries/bytes become fleet totals) plus the
// proxy's own counters. Series order follows first appearance so the page
// is stable across scrapes.
func (p *proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sums := map[string]float64{}
	types := map[string]string{}
	var order []string
	up := 0
	for _, base := range p.replicas {
		ctx, cancel := context.WithTimeout(r.Context(), 3*time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		resp, err := p.client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		cancel()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		up++
		for _, line := range strings.Split(string(body), "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "# TYPE ") {
				fields := strings.Fields(line)
				if len(fields) == 4 {
					if _, ok := types[fields[2]]; !ok {
						types[fields[2]] = fields[3]
					}
				}
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			cut := strings.LastIndexByte(line, ' ')
			if cut <= 0 {
				continue
			}
			series, valStr := line[:cut], line[cut+1:]
			var v float64
			if _, err := fmt.Sscanf(valStr, "%g", &v); err != nil {
				continue
			}
			if _, ok := sums[series]; !ok {
				order = append(order, series)
			}
			sums[series] += v
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE satsharded_replicas gauge\n")
	fmt.Fprintf(w, "satsharded_replicas %d\n", len(p.replicas))
	fmt.Fprintf(w, "# TYPE satsharded_replicas_up gauge\n")
	fmt.Fprintf(w, "satsharded_replicas_up %d\n", up)
	fmt.Fprintf(w, "# TYPE satsharded_requests_total counter\n")
	fmt.Fprintf(w, "satsharded_requests_total %d\n", p.requests.Load())
	fmt.Fprintf(w, "# TYPE satsharded_reroutes_total counter\n")
	fmt.Fprintf(w, "satsharded_reroutes_total %d\n", p.reroutes.Load())
	fmt.Fprintf(w, "# TYPE satsharded_unroutable_total counter\n")
	fmt.Fprintf(w, "satsharded_unroutable_total %d\n", p.exhausted.Load())
	typed := map[string]bool{}
	for _, series := range order {
		name := series
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		if t, ok := types[name]; ok && !typed[name] {
			typed[name] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", name, t)
		}
		fmt.Fprintf(w, "%s %g\n", series, sums[series])
	}
}

func (p *proxy) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sample", p.handleSample)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	return mux
}

// Close stops the probe loop. Idempotent.
func (p *proxy) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
}

func errorJSON(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// normalizeBase canonicalizes a replica base URL the way the routing
// table stores them: trimmed, scheme-defaulted, no trailing slash.
func normalizeBase(b string) string {
	b = strings.TrimRight(strings.TrimSpace(b), "/")
	if b == "" {
		return ""
	}
	if !strings.Contains(b, "://") {
		b = "http://" + b
	}
	return b
}

func splitReplicas(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		if r = normalizeBase(r); r != "" {
			out = append(out, r)
		}
	}
	return out
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "satsharded:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8079", "listen address (host:port; port 0 picks a free port)")
		replicas = flag.String("replicas", "", "comma-separated satserved replica base URLs (required)")
		probe    = flag.Duration("probe", time.Second, "replica health probe interval")
		maxBody  = flag.Int64("maxbody", 8<<20, "maximum request body bytes buffered for key routing")
		logJSON  = flag.Bool("logjson", false, "emit structured logs as JSON")
		portFile = flag.String("portfile", "", "write the bound address to this file once listening")
	)
	flag.Parse()

	bases := splitReplicas(*replicas)
	if len(bases) == 0 {
		return fmt.Errorf("-replicas is required")
	}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	p := newProxy(bases, *maxBody, log)
	defer p.Close()
	go p.probeLoop(*probe)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	httpSrv := &http.Server{
		Handler:           p.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Info("routing", "addr", bound, "replicas", bases)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Info("signal received, shutting down", "signal", sig.String())
	case err := <-errCh:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("stopped")
	return nil
}
