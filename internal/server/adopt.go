package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/sampling"
)

// handleAdopt (POST /v1/adopt) receives a checkpoint envelope from a peer
// that is draining or handing work off, and parks it in the local spool.
// The endpoint sits on the same trusted-edge footing as tenant headers: an
// envelope is self-contained untrusted input (it is decoded and
// hash-verified like any resume token), but the endpoint itself should
// only be reachable from sibling replicas — a public deployment firewalls
// it or terminates it at the mesh layer (see DESIGN.md).
//
// Adoption is priced like a resume, not admitted like one: the envelope is
// decoded, resolved through the same checkpoint path a ?resume= takes
// (warming the cache for the client's reconnect), and checked against this
// server's whole memory budget as an advisory bound — an envelope that
// could never fit is refused while the sender still holds it and can try
// another peer. The actual ledger reservation and fair-queueing happen
// when the client presents the token, exactly as for any ?resume=.
func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	reject := func(status int, msg, outcome, reason string) {
		s.met.inc(&s.met.handoffReject)
		s.log.Warn("adoption refused", "reason", reason)
		s.errorBody(w, status, msg, outcome, "")
	}
	if s.draining.Load() {
		reject(http.StatusServiceUnavailable, "server draining", outcomeDraining, "draining")
		return
	}
	if s.cfg.SpoolBudget <= 0 {
		reject(http.StatusServiceUnavailable, "spool disabled", outcomeDraining, "spool_disabled")
		return
	}
	if s.cfg.Injector.RejectAdopt() {
		reject(http.StatusServiceUnavailable, "injected adoption rejection", outcomeStreamErr, "injected")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.SpoolBudget))
	if err != nil {
		reject(http.StatusRequestEntityTooLarge, "envelope too large", outcomeTooLarge, "too_large")
		return
	}
	ck, err := sampling.DecodeCheckpoint(body)
	if err != nil {
		reject(http.StatusBadRequest, "bad envelope: "+err.Error(), outcomeBadRequest, "bad_envelope")
		return
	}
	// Warm the compile cache under the envelope's own key (specialized when
	// it carries assumptions) so the client's reconnect doesn't pay the
	// compile on its critical path; the price feeds the advisory capacity
	// check below.
	_, _, est, err := s.resolveCheckpoint(r.Context(), ck, 0)
	if errors.Is(err, errClientGone) {
		s.met.request(outcomeCancelled)
		return
	}
	if err != nil {
		reject(http.StatusBadRequest, "envelope compile: "+err.Error(), outcomeBadRequest, "compile")
		return
	}
	if est > s.cfg.MemoryBudget {
		reject(http.StatusTooManyRequests, "envelope exceeds this server's session memory budget",
			outcomeShedMemory, "memory")
		return
	}
	tok, err := s.spool.Put(body)
	if err != nil {
		reject(http.StatusInsufficientStorage, "spool: "+err.Error(), outcomeShedMemory, "spool")
		return
	}
	s.met.inc(&s.met.handoffAdopt)
	s.met.request(outcomeOK)
	s.log.Info("adopted stream checkpoint", "key", short(ck.Key()), "token", short(tok),
		"delivered", ck.Delivered(), "bytes", len(body))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"token": tok, "key": ck.Key()})
}

// handleHandoff (POST /v1/handoff) asks every in-flight stream to
// checkpoint at its next tick boundary and move to a peer (local spool
// fallback) — a live rebalance, not a drain: the server keeps accepting
// new work. The response reports how many active streams were signalled.
// Like /v1/adopt this is an internal admin endpoint for the trusted edge.
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	next := &handoffSignal{ch: make(chan struct{})}
	old := s.handoff.Swap(next)
	close(old.ch)
	active := s.queue.Active()
	s.log.Info("handoff requested", "active", active)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"signaled": active})
}
