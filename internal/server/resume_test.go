package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sampling"
	"repro/internal/tensor"
)

// openStream POSTs body to url with a cancellable request and returns the
// parsed meta line plus a line scanner over the rest of the NDJSON stream.
func openStream(t *testing.T, url string, body io.Reader) (meta streamLine, sc *bufio.Scanner, cancel context.CancelFunc, closeBody func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("stream: status %d: %s", resp.StatusCode, b)
	}
	sc = bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		resp.Body.Close()
		cancel()
		t.Fatalf("stream ended before a meta line: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil || meta.Type != "meta" {
		t.Fatalf("bad meta line %q: %v", sc.Text(), err)
	}
	return meta, sc, cancel, func() { resp.Body.Close() }
}

// readNSols reads exactly n solution lines from the scanner.
func readNSols(t *testing.T, sc *bufio.Scanner, n int) []string {
	t.Helper()
	sols := make([]string, 0, n)
	for len(sols) < n && sc.Scan() {
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if ln.Type == "solution" {
			sols = append(sols, ln.Assignment)
		}
	}
	if len(sols) < n {
		t.Fatalf("stream produced only %d/%d solutions: %v", len(sols), n, sc.Err())
	}
	return sols
}

// drainInterruptedStream runs one pinned-seed unbounded stream against the
// server, reads a few solutions, starts a drain, and returns everything the
// stream delivered plus the resume token from its done line.
func drainInterruptedStream(t *testing.T, s *Server, url string) (sols []string, token string) {
	t.Helper()
	_, sc, cancel, closeBody := openStream(t, url, strings.NewReader(manyVarsFormula(30).DIMACSString()))
	defer closeBody()
	defer cancel()
	sols = readNSols(t, sc, 3)
	s.StartDrain()
	var done *streamLine
	for sc.Scan() {
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch ln.Type {
		case "solution":
			sols = append(sols, ln.Assignment)
		case "done":
			d := ln
			done = &d
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error during drain: %v", err)
	}
	if done == nil {
		t.Fatal("drained stream ended without a done line")
	}
	if !done.Drained {
		t.Fatalf("stream was not drained: %+v", done)
	}
	if done.Resume == "" {
		t.Fatal("drained done line carries no resume token")
	}
	if done.Delivered != len(sols) {
		t.Fatalf("done says %d delivered, stream carried %d", done.Delivered, len(sols))
	}
	return sols, done.Resume
}

// TestDrainResumeZeroLoss is the server-level zero-loss acceptance path: a
// pinned-seed stream is interrupted by a drain on one server process, its
// resume token rides the done line (and the spool directory) across a
// "restart" to a second server with a cold compiler, and the resumed
// stream must continue the original exactly — the concatenation equals an
// uninterrupted same-seed run, solution for solution.
func TestDrainResumeZeroLoss(t *testing.T) {
	dir := t.TempDir()
	cfgTempl := Config{
		DrainGrace:     50 * time.Millisecond,
		MaxTarget:      1_000_000,
		SpoolDir:       dir,
		Seed:           1,
		Device:         tensor.ParallelN(2),
		MaxTimeout:     time.Minute,
		DefaultTimeout: 30 * time.Second,
	}
	serverA := New(cfgTempl)
	tsA := newTestHTTP(t, serverA)
	first, token := drainInterruptedStream(t, serverA,
		tsA.URL+"/v1/sample?target=0&seed=42&timeout=30s")

	// "Restart": a fresh server over the same spool directory, fresh
	// compiler. The token must survive the process boundary via disk.
	// The resumed stream stays unbounded (target=0) like the original —
	// the admission target steers the scheduler's final ticks, so a
	// stream-for-stream differential needs identical targets on every run
	// — and the client cuts it after 50 more solutions.
	serverB := New(cfgTempl)
	tsB := newTestHTTP(t, serverB)
	meta, sc, cancelB, closeB := openStream(t, tsB.URL+"/v1/sample?resume="+token+"&target=0", nil)
	if !meta.Resumed {
		t.Fatal("resumed stream's meta line does not say resumed")
	}
	if meta.Delivered != len(first) {
		t.Fatalf("resumed meta delivered = %d, want %d", meta.Delivered, len(first))
	}
	resumed := readNSols(t, sc, 50)
	cancelB()
	closeB()
	total := len(first) + len(resumed)

	// The differential baseline: the same seed run uninterrupted on a
	// third cold server must produce the identical stream, solution for
	// solution across the splice point.
	serverC := New(Config{
		MaxTarget: 1_000_000, Seed: 1, Device: tensor.ParallelN(2),
		MaxTimeout: time.Minute, DefaultTimeout: 30 * time.Second,
	})
	tsC := newTestHTTP(t, serverC)
	_, bsc, cancelC, closeC := openStream(t, tsC.URL+"/v1/sample?target=0&seed=42&timeout=30s",
		strings.NewReader(manyVarsFormula(30).DIMACSString()))
	baseline := readNSols(t, bsc, total)
	cancelC()
	closeC()
	for i, sol := range first {
		if sol != baseline[i] {
			t.Fatalf("pre-drain stream diverges from baseline at solution %d", i)
		}
	}
	for i, sol := range resumed {
		if sol != baseline[len(first)+i] {
			t.Fatalf("resumed stream diverges from baseline at solution %d", len(first)+i)
		}
	}

	// Tokens are one-shot: the same token again must 404.
	r2, err := http.Post(tsB.URL+"/v1/sample?resume="+token, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("second resume of a one-shot token: status %d, want 404", r2.StatusCode)
	}
}

// newTestHTTP mounts a prebuilt server (testServer always calls New
// itself, which the resume tests can't use — they need the *Server for
// drains and spool inspection while controlling Config exactly).
func newTestHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestDrainWhileQueuedFailsFast is the regression test for the SFQ drain
// bug: a request already parked in the admission queue when StartDrain
// runs must wake immediately with the same clean 503 a fresh arrival
// gets — not sit blocked through the grace period holding its memory
// reservation.
func TestDrainWhileQueuedFailsFast(t *testing.T) {
	s, ts := testServer(t, Config{
		Workers:    1,
		QueueDepth: 8,
		MaxTarget:  1_000_000,
		DrainGrace: 30 * time.Second, // long on purpose: a fail-fast must not wait this out
	})
	// Occupy the single worker slot with a long-lived stream.
	sc, cancel, resp := startUnboundedStream(t, ts.URL+"/v1/sample?target=0&timeout=30s", 1)
	defer resp.Body.Close()
	defer cancel()
	_ = sc

	// Park a second request in the queue.
	type result struct {
		status  int
		elapsed time.Duration
	}
	resCh := make(chan result, 1)
	go func() {
		t0 := time.Now()
		r, err := http.Post(ts.URL+"/v1/sample?target=5", "text/plain",
			strings.NewReader(manyVarsFormula(30).DIMACSString()))
		if err != nil {
			resCh <- result{status: -1, elapsed: time.Since(t0)}
			return
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		resCh <- result{status: r.StatusCode, elapsed: time.Since(t0)}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	s.StartDrain()
	select {
	case r := <-resCh:
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("queued request got status %d, want 503", r.status)
		}
		if r.elapsed > 5*time.Second {
			t.Fatalf("queued request took %v to fail — it waited out the drain instead of failing fast", r.elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request still blocked 10s after StartDrain (grace is 30s: fail-fast is broken)")
	}
	if s.queue.Depth() != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", s.queue.Depth())
	}
}

// TestResumeRepricedByLedger: a resume is a fresh admission — the restored
// session must reserve its estimate against the target server's memory
// ledger, be shed with 429 when the budget cannot hold it, and in that
// case the one-shot token must be re-spooled so the client's retry still
// works.
func TestResumeRepricedByLedger(t *testing.T) {
	env := checkpointEnvelope(t, 2000)

	tiny, tsTiny := testServer(t, Config{MemoryBudget: 1 << 12, MaxTarget: 1_000_000})
	token, err := tiny.spool.Put(env)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tsTiny.URL+"/v1/sample?resume="+token+"&target=2000", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("resume against a full ledger: status %d, want 429", resp.StatusCode)
	}
	if n, _, _, _ := tiny.spool.Stats(); n != 1 {
		t.Fatalf("token was not re-spooled after the shed: %d entries", n)
	}

	// The same envelope admits fine on a server with room, and its
	// reservation is returned when the stream ends.
	roomy, tsRoomy := testServer(t, Config{MaxTarget: 1_000_000})
	token2, err := roomy.spool.Put(env)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := http.Post(tsRoomy.URL+"/v1/sample?resume="+token2+"&target=80", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(r2.Body)
		t.Fatalf("resume: status %d: %s", r2.StatusCode, body)
	}
	st := readStream(t, r2.Body)
	if st.done == nil || !st.meta.Resumed {
		t.Fatalf("resumed stream malformed: meta=%+v done=%+v", st.meta, st.done)
	}
	roomy.memMu.Lock()
	reserved := roomy.reserved
	roomy.memMu.Unlock()
	if reserved != 0 {
		t.Fatalf("ledger still holds %d bytes after the resumed stream ended", reserved)
	}
}

// checkpointEnvelope builds a real session checkpoint (target solutions
// delivered) without any HTTP round trip.
func checkpointEnvelope(t *testing.T, target int) []byte {
	t.Helper()
	p, err := sampling.CompileProblem(manyVarsFormula(30))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(sampling.SessionConfig{Seed: 7, BatchSize: 256, Device: tensor.ParallelN(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stream(context.Background(), min(target, 64), nil); err != nil {
		t.Fatal(err)
	}
	env, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestSpoolMetricsExported: the spool gauges ride /metrics, and LRU
// eviction under a small budget both bounds the bytes and counts.
func TestSpoolMetricsExported(t *testing.T) {
	env := checkpointEnvelope(t, 64)
	budget := int64(len(env)) + int64(len(env))/2 // room for one envelope, not two
	s, ts := testServer(t, Config{SpoolBudget: budget})
	if _, err := s.spool.Put(env); err != nil {
		t.Fatal(err)
	}
	env2 := checkpointEnvelope(t, 32)
	if _, err := s.spool.Put(env2); err != nil {
		t.Fatal(err)
	}
	entries, bytes, evictions, _ := s.spool.Stats()
	if bytes > budget {
		t.Fatalf("spool holds %d bytes over a %d budget", bytes, budget)
	}
	if evictions != 1 || entries != 1 {
		t.Fatalf("entries=%d evictions=%d, want 1/1 (older envelope LRU-evicted)", entries, evictions)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(body)
	for _, want := range []string{
		fmt.Sprintf("satserved_spool_bytes %d", bytes),
		"satserved_spool_evictions_total 1",
		"satserved_spool_entries 1",
		"satserved_checkpoints_total 0",
		"satserved_resumes_total 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestResumeRejectsDamage: a corrupted token 400s (or 404s when the
// damage hits the token string itself) and never resumes a wrong stream.
func TestResumeRejectsDamage(t *testing.T) {
	env := checkpointEnvelope(t, 64)
	s, ts := testServer(t, Config{MaxTarget: 1_000_000})
	// Corrupt the envelope before parking it — the spool's own content
	// check is keyed by the damaged bytes' hash, so it stores fine, and
	// the checkpoint decoder must be the layer that refuses it.
	bad := append([]byte(nil), env...)
	bad[len(bad)/3] ^= 0x10
	token, err := s.spool.Put(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sample?resume="+token, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt envelope: status %d, want 400", resp.StatusCode)
	}
	// A made-up token misses cleanly.
	r2, err := http.Post(ts.URL+"/v1/sample?resume="+strings.Repeat("ab", 32), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown token: status %d, want 404", r2.StatusCode)
	}
}

// TestResumeRefusalsRespool pins the one refusal exit: every transient
// refusal of a ?resume= request puts the taken envelope back under the same
// token, so the client's retry still resumes — here on a successor process
// over the same spool directory, since some refusals (memory, drain) leave
// the refusing server unable to serve it. A refusal caused by the envelope
// itself consumes the token.
func TestResumeRefusalsRespool(t *testing.T) {
	env := checkpointEnvelope(t, 64)
	damaged := append([]byte(nil), env...)
	damaged[len(damaged)/3] ^= 0x10

	// hog holds a worker slot and park queues one waiter of a tenant for
	// the rest of the case.
	hog := func(t *testing.T, s *Server) {
		g, err := s.queue.AcquireGrant(context.Background(), "hog", 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Release)
	}
	park := func(t *testing.T, s *Server, tenant string) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		go s.queue.AcquireGrant(ctx, tenant, 1)
		waitFor(t, func() bool { return s.queue.Depth() == 1 })
	}
	spooled := func(s *Server) int { n, _, _, _ := s.spool.Stats(); return n }

	cases := []struct {
		name   string
		cfg    Config
		env    []byte // nil: the intact envelope
		query  string
		tenant string
		setup  func(t *testing.T, s *Server)
		// during runs while the request is in flight and ends it: cancel
		// is the request's own context.
		during    func(t *testing.T, s *Server, cancel context.CancelFunc)
		status    int // 0: the client hung up, no response
		respooled bool
	}{
		{name: "assume-mismatch", query: "&assume=5", status: http.StatusBadRequest, respooled: true},
		{name: "cancel-at-compile-gate",
			setup: func(t *testing.T, s *Server) {
				for i := 0; i < cap(s.compileGate); i++ {
					s.compileGate <- struct{}{}
				}
				t.Cleanup(func() {
					for i := 0; i < cap(s.compileGate); i++ {
						<-s.compileGate
					}
				})
			},
			during: func(t *testing.T, s *Server, cancel context.CancelFunc) {
				waitFor(t, func() bool { return spooled(s) == 0 }) // token taken
				cancel()
			},
			respooled: true},
		{name: "memory-shed",
			setup:  func(t *testing.T, s *Server) { s.reserve(s.cfg.MemoryBudget) },
			status: http.StatusTooManyRequests, respooled: true},
		{name: "queue-full", cfg: Config{Workers: 1, QueueDepth: 1},
			setup:  func(t *testing.T, s *Server) { hog(t, s); park(t, s, "w") },
			status: http.StatusTooManyRequests, respooled: true},
		{name: "tenant-share-full", cfg: Config{Workers: 1, TenantQueueDepth: 1}, tenant: "t",
			setup:  func(t *testing.T, s *Server) { hog(t, s); park(t, s, "t") },
			status: http.StatusTooManyRequests, respooled: true},
		{name: "draining", cfg: Config{Workers: 1}, setup: hog,
			during: func(t *testing.T, s *Server, _ context.CancelFunc) {
				waitFor(t, func() bool { return s.queue.Depth() == 1 })
				s.StartDrain()
			},
			status: http.StatusServiceUnavailable, respooled: true},
		{name: "disconnect-while-queued", cfg: Config{Workers: 1}, setup: hog,
			during: func(t *testing.T, s *Server, cancel context.CancelFunc) {
				waitFor(t, func() bool { return s.queue.Depth() == 1 })
				cancel()
			},
			respooled: true},
		{name: "damaged-envelope", env: damaged, status: http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tc.cfg
			cfg.SpoolDir, cfg.MaxTarget = dir, 1_000_000
			s, ts := testServer(t, cfg)
			data := env
			if tc.env != nil {
				data = tc.env
			}
			token, err := s.spool.Put(data)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(t, s)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			statusCh := make(chan int, 1)
			go func() {
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
					ts.URL+"/v1/sample?resume="+token+"&target=80"+tc.query, nil)
				if tc.tenant != "" {
					req.Header.Set("X-Tenant", tc.tenant)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					statusCh <- 0
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				statusCh <- resp.StatusCode
			}()
			if tc.during != nil {
				tc.during(t, s, cancel)
			}
			select {
			case status := <-statusCh:
				if status != tc.status {
					t.Fatalf("refused resume: status %d, want %d", status, tc.status)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("refused resume still blocked after 10s")
			}
			want := 0
			if tc.respooled {
				want = 1
			}
			// A client that hung up got no answer; its handler may still be
			// on its way to the refusal exit.
			waitFor(t, func() bool { return spooled(s) == want })

			_, next := testServer(t, Config{SpoolDir: dir, MaxTarget: 1_000_000})
			resp, err := http.Post(next.URL+"/v1/sample?resume="+token+"&target=80", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if !tc.respooled {
				if resp.StatusCode != http.StatusNotFound {
					t.Fatalf("token refused for its envelope resumed again: status %d, want 404", resp.StatusCode)
				}
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("retry of the re-spooled token: status %d, want 200", resp.StatusCode)
			}
			if st := readStream(t, resp.Body); !st.meta.Resumed || st.done == nil {
				t.Fatalf("retry did not resume: meta=%+v done=%+v", st.meta, st.done)
			}
		})
	}
}
