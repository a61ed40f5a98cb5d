package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sampling"
)

// assumeDIMACS: (x1∨x2∨x3)(x4∨x5∨x6) — 49 models; under x1 pinned FALSE
// the first clause strips to (x2∨x3) — 3 settings — and the second keeps
// its 7, so the conditioned space has exactly 21 models. The negative pin
// matters for the differential leg: a positive pin would satisfy the whole
// clause and orphan x2,x3 from the conditioned CNF, and the sampler pins
// clause-free variables to false (see internal/quality), which would make
// the two streams legitimately diverge.
const assumeDIMACS = "p cnf 6 2\n1 2 3 0\n4 5 6 0\n"

func postSample(t *testing.T, url, body string) (*http.Response, error) {
	t.Helper()
	return http.Post(url, "text/plain", strings.NewReader(body))
}

// TestAssumeEndToEnd drives ?assume= through the full service surface:
// the stream is specialized (meta line + X-Problem-Key carry the
// specialized identity), every solution satisfies the pins and the base
// formula, the solution set equals the hand-conditioned CNF's, and the
// specialized key is directly addressable afterwards.
func TestAssumeEndToEnd(t *testing.T) {
	s, ts := testServer(t, Config{})

	exhaust := func(query string, body string) stream {
		t.Helper()
		resp, err := postSample(t, ts.URL+"/v1/sample?"+query, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("?%s: status %d", query, resp.StatusCode)
		}
		return readStream(t, resp.Body)
	}

	got := exhaust("target=100&seed=9&timeout=30s&assume=-1", assumeDIMACS)
	if got.done == nil || !got.done.Exhausted {
		t.Fatal("assumed stream did not exhaust")
	}
	if fmt.Sprint(got.meta.Assumptions) != "[-1]" {
		t.Fatalf("meta assumptions = %v, want [-1]", got.meta.Assumptions)
	}
	f, err := cnf.ParseDIMACSString(assumeDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := sampling.HashFormula(f)
	specKey := cnf.AssumeKey(baseKey, []cnf.Lit{-1})
	if got.meta.Key != specKey {
		t.Fatalf("meta key %.12s, want specialized key %.12s", got.meta.Key, specKey)
	}
	for _, bits := range got.sols {
		a := parseBits(t, bits)
		if a[0] {
			t.Fatalf("solution %q violates assumption -1", bits)
		}
		if !f.Sat(a) {
			t.Fatalf("solution %q does not satisfy the formula", bits)
		}
	}

	// Differential: the conditioned CNF, posted plainly, spans the same
	// solution set (order may differ — the circuits are different).
	cond, err := f.Condition([]cnf.Lit{-1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	cond.WriteDIMACS(&sb)
	want := exhaust("target=100&seed=9&timeout=30s", sb.String())
	if want.done == nil || !want.done.Exhausted {
		t.Fatal("conditioned stream did not exhaust")
	}
	a, b := append([]string{}, got.sols...), append([]string{}, want.sols...)
	sort.Strings(a)
	sort.Strings(b)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("assumed solutions (%d) differ from conditioned CNF's (%d)", len(a), len(b))
	}
	if len(a) != 21 {
		t.Fatalf("conditioned space has %d solutions, want 21", len(a))
	}

	// The specialized artifact is now addressable by base key + pins and
	// by its own key — no body either way.
	byKey := exhaust("target=5&seed=3&key="+baseKey+"&assume=-1", "")
	if byKey.meta.Key != specKey {
		t.Fatalf("key+assume routed to %.12s, want %.12s", byKey.meta.Key, specKey)
	}
	direct := exhaust("target=5&seed=3&key="+specKey, "")
	if direct.meta.Key != specKey {
		t.Fatal("specialized key is not directly addressable")
	}
	if st := s.Compiler().Stats(); st.Misses > 3 {
		t.Fatalf("key-addressed assume requests recompiled: %+v", st)
	}
}

// TestAssumeRejections: malformed or impossible pin sets get typed errors
// before any stream starts.
func TestAssumeRejections(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name   string
		query  string
		body   string
		status int
	}{
		{"malformed", "assume=1,,x", assumeDIMACS, http.StatusBadRequest},
		{"zero", "assume=[0]", assumeDIMACS, http.StatusBadRequest},
		{"out-of-range", "assume=99", assumeDIMACS, http.StatusBadRequest},
		{"contradictory-spec", "assume=1,-1", assumeDIMACS, http.StatusBadRequest},
		{"unsat-under-pins", "assume=-1,-2,-3", assumeDIMACS, http.StatusConflict},
		{"unknown-base-key", "assume=1&key=deadbeef", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := postSample(t, ts.URL+"/v1/sample?target=2&"+tc.query, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}

	// Pins invalid for a resident base artifact: 400 (the key exists —
	// the request is wrong), distinct from the 404 above.
	warm, err := postSample(t, ts.URL+"/v1/sample?target=1", assumeDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	warm.Body.Close()
	f, _ := cnf.ParseDIMACSString(assumeDIMACS)
	resp, err := postSample(t, ts.URL+"/v1/sample?target=1&key="+sampling.HashFormula(f)+"&assume=99", "")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pins over resident key: status %d, want 400", resp.StatusCode)
	}
}
