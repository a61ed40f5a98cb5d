package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/sampling"
	"repro/internal/store"
)

// rateWindow is the sliding window (seconds) behind the sol/s gauge.
const rateWindow = 10

// metrics aggregates the service counters exported on /metrics. All
// methods are safe for concurrent use; Write renders a consistent snapshot
// in the Prometheus text exposition format.
type metrics struct {
	start time.Time

	mu            sync.Mutex
	requests      map[string]int64 // completed requests by outcome
	solutions     int64            // solutions streamed to clients, total
	projRequests  int64            // completed requests that sampled a projection
	projSolutions int64            // projected-distinct solutions streamed, total
	checkpoints   int64            // drained streams parked in the spool
	resumes       int64            // streams re-attached from a resume token
	handoffSent   int64            // envelopes successfully pushed to a peer
	handoffAdopt  int64            // envelopes accepted on /v1/adopt
	handoffReject int64            // /v1/adopt requests this server refused
	preemptions   int64            // sessions checkpointed off their worker slot
	bucket        [rateWindow]int64
	stamp         [rateWindow]int64 // unix second each bucket last belonged to
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), requests: map[string]int64{}}
}

// Request outcomes. "ok" includes partial results delivered under
// cancellation or drain — the client got a well-formed stream.
const (
	outcomeOK         = "ok"
	outcomeBadRequest = "bad_request"
	outcomeTooLarge   = "too_large"
	outcomeNotFound   = "not_found"
	outcomeShedQueue  = "shed_queue"
	outcomeShedTenant = "shed_tenant"
	outcomeShedMemory = "shed_memory"
	outcomeDraining   = "draining"
	outcomeCancelled  = "cancelled" // client gone before a stream started
	outcomeStreamErr  = "stream_error"
	// unsat_assume: the bounded SAT precheck proved the formula has no
	// models under the request's ?assume= pins — a clean 409, not a
	// stream that trickles out empty.
	outcomeUnsatAssume = "unsat_assume"
)

func (m *metrics) request(outcome string) {
	m.mu.Lock()
	m.requests[outcome]++
	m.mu.Unlock()
}

// addSolutions records n freshly streamed solutions at time now; projected
// marks them as projected-distinct deliveries.
func (m *metrics) addSolutions(n int, projected bool, now time.Time) {
	sec := now.Unix()
	i := int(sec % rateWindow)
	m.mu.Lock()
	m.solutions += int64(n)
	if projected {
		m.projSolutions += int64(n)
	}
	if m.stamp[i] != sec {
		m.stamp[i], m.bucket[i] = sec, 0
	}
	m.bucket[i] += int64(n)
	m.mu.Unlock()
}

// inc bumps one of the event counters above (projRequests, checkpoints,
// resumes, handoffSent, handoffAdopt, handoffReject, preemptions).
func (m *metrics) inc(counter *int64) {
	m.mu.Lock()
	*counter++
	m.mu.Unlock()
}

// solRate returns the aggregate solutions/s over the trailing window.
func (m *metrics) solRate(now time.Time) float64 {
	sec := now.Unix()
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum int64
	for i := 0; i < rateWindow; i++ {
		if sec-m.stamp[i] < rateWindow {
			sum += m.bucket[i]
		}
	}
	return float64(sum) / rateWindow
}

// shedTotal is the number of requests rejected by admission control.
// Caller holds m.mu.
func (m *metrics) shedTotalLocked() int64 {
	return m.requests[outcomeShedQueue] + m.requests[outcomeShedTenant] + m.requests[outcomeShedMemory]
}

// Write renders the metrics in Prometheus text format. The gauges owned by
// other components (queue, compiler, memory ledger) are passed in so one
// call renders a single consistent page.
func (m *metrics) Write(w io.Writer, queueDepth, active int, reserved, budget int64,
	cs sampling.CompilerStats, ss store.Stats, draining bool,
	spoolEntries int, spoolBytes, spoolEvictions, spoolCorrupt int64) {
	now := time.Now()
	fmt.Fprintf(w, "# TYPE satserved_uptime_seconds counter\n")
	fmt.Fprintf(w, "satserved_uptime_seconds %.3f\n", now.Sub(m.start).Seconds())
	fmt.Fprintf(w, "# TYPE satserved_queue_depth gauge\n")
	fmt.Fprintf(w, "satserved_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# TYPE satserved_active_sessions gauge\n")
	fmt.Fprintf(w, "satserved_active_sessions %d\n", active)
	fmt.Fprintf(w, "# TYPE satserved_mem_reserved_bytes gauge\n")
	fmt.Fprintf(w, "satserved_mem_reserved_bytes %d\n", reserved)
	fmt.Fprintf(w, "# TYPE satserved_mem_budget_bytes gauge\n")
	fmt.Fprintf(w, "satserved_mem_budget_bytes %d\n", budget)
	fmt.Fprintf(w, "# TYPE satserved_draining gauge\n")
	d := 0
	if draining {
		d = 1
	}
	fmt.Fprintf(w, "satserved_draining %d\n", d)

	m.mu.Lock()
	solutions := m.solutions
	projRequests, projSolutions := m.projRequests, m.projSolutions
	checkpoints, resumes := m.checkpoints, m.resumes
	hSent, hAdopt, hReject := m.handoffSent, m.handoffAdopt, m.handoffReject
	preemptions := m.preemptions
	shed := m.shedTotalLocked()
	outcomes := make([]string, 0, len(m.requests))
	for k := range m.requests {
		outcomes = append(outcomes, k)
	}
	sort.Strings(outcomes)
	counts := make([]int64, len(outcomes))
	for i, k := range outcomes {
		counts[i] = m.requests[k]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE satserved_requests_total counter\n")
	for i, k := range outcomes {
		fmt.Fprintf(w, "satserved_requests_total{outcome=%q} %d\n", k, counts[i])
	}
	fmt.Fprintf(w, "# TYPE satserved_shed_total counter\n")
	fmt.Fprintf(w, "satserved_shed_total %d\n", shed)
	fmt.Fprintf(w, "# TYPE satserved_solutions_total counter\n")
	fmt.Fprintf(w, "satserved_solutions_total %d\n", solutions)
	fmt.Fprintf(w, "# TYPE satserved_projected_requests_total counter\n")
	fmt.Fprintf(w, "satserved_projected_requests_total %d\n", projRequests)
	fmt.Fprintf(w, "# TYPE satserved_projected_solutions_total counter\n")
	fmt.Fprintf(w, "satserved_projected_solutions_total %d\n", projSolutions)
	fmt.Fprintf(w, "# TYPE satserved_sol_per_sec gauge\n")
	fmt.Fprintf(w, "satserved_sol_per_sec %.3f\n", m.solRate(now))
	fmt.Fprintf(w, "# TYPE satserved_checkpoints_total counter\n")
	fmt.Fprintf(w, "satserved_checkpoints_total %d\n", checkpoints)
	fmt.Fprintf(w, "# TYPE satserved_resumes_total counter\n")
	fmt.Fprintf(w, "satserved_resumes_total %d\n", resumes)
	fmt.Fprintf(w, "# TYPE satserved_spool_entries gauge\n")
	fmt.Fprintf(w, "satserved_spool_entries %d\n", spoolEntries)
	fmt.Fprintf(w, "# TYPE satserved_spool_bytes gauge\n")
	fmt.Fprintf(w, "satserved_spool_bytes %d\n", spoolBytes)
	fmt.Fprintf(w, "# TYPE satserved_spool_evictions_total counter\n")
	fmt.Fprintf(w, "satserved_spool_evictions_total %d\n", spoolEvictions)
	fmt.Fprintf(w, "# TYPE satserved_spool_corrupt_total counter\n")
	fmt.Fprintf(w, "satserved_spool_corrupt_total %d\n", spoolCorrupt)
	fmt.Fprintf(w, "# TYPE satserved_handoff_sent_total counter\n")
	fmt.Fprintf(w, "satserved_handoff_sent_total %d\n", hSent)
	fmt.Fprintf(w, "# TYPE satserved_handoff_adopted_total counter\n")
	fmt.Fprintf(w, "satserved_handoff_adopted_total %d\n", hAdopt)
	fmt.Fprintf(w, "# TYPE satserved_handoff_rejected_total counter\n")
	fmt.Fprintf(w, "satserved_handoff_rejected_total %d\n", hReject)
	fmt.Fprintf(w, "# TYPE satserved_preemptions_total counter\n")
	fmt.Fprintf(w, "satserved_preemptions_total %d\n", preemptions)

	fmt.Fprintf(w, "# TYPE satserved_compiler_hits_total counter\n")
	fmt.Fprintf(w, "satserved_compiler_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE satserved_compiler_misses_total counter\n")
	fmt.Fprintf(w, "satserved_compiler_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE satserved_compiler_evictions_total counter\n")
	fmt.Fprintf(w, "satserved_compiler_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "# TYPE satserved_compiler_entries gauge\n")
	fmt.Fprintf(w, "satserved_compiler_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "# TYPE satserved_compiler_resident_bytes gauge\n")
	fmt.Fprintf(w, "satserved_compiler_resident_bytes %d\n", cs.ResidentBytes)

	// The durable compile tier. Hits/misses/bytes are the compiler's disk
	// consultations; entries/bytes/evictions/quarantined are the store's
	// own view of the shared directory. All zero when no -store is mounted.
	fmt.Fprintf(w, "# TYPE satserved_store_hits_total counter\n")
	fmt.Fprintf(w, "satserved_store_hits_total %d\n", cs.DiskHits)
	fmt.Fprintf(w, "# TYPE satserved_store_misses_total counter\n")
	fmt.Fprintf(w, "satserved_store_misses_total %d\n", cs.DiskMisses)
	fmt.Fprintf(w, "# TYPE satserved_store_loaded_bytes_total counter\n")
	fmt.Fprintf(w, "satserved_store_loaded_bytes_total %d\n", cs.DiskBytes)
	fmt.Fprintf(w, "# TYPE satserved_store_entries gauge\n")
	fmt.Fprintf(w, "satserved_store_entries %d\n", ss.Entries)
	fmt.Fprintf(w, "# TYPE satserved_store_bytes gauge\n")
	fmt.Fprintf(w, "satserved_store_bytes %d\n", ss.Bytes)
	fmt.Fprintf(w, "# TYPE satserved_store_evictions_total counter\n")
	fmt.Fprintf(w, "satserved_store_evictions_total %d\n", ss.Evictions)
	fmt.Fprintf(w, "# TYPE satserved_store_quarantined_total counter\n")
	fmt.Fprintf(w, "satserved_store_quarantined_total %d\n", ss.Quarantined)
}
