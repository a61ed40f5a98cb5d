package main

import (
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sampling"
)

const routeDIMACS = "p cnf 6 2\n1 2 3 0\n4 5 6 0\n"

func routeFor(t *testing.T, url, body string) string {
	t.Helper()
	p := newProxy([]string{"http://a", "http://b"}, 1<<20, slog.New(slog.NewTextHandler(io.Discard, nil)))
	defer p.Close()
	r := httptest.NewRequest("POST", url, strings.NewReader(body))
	return p.routeKey(r, []byte(body))
}

// TestRouteKeyAssume: the proxy derives the same specialized key the
// replica's compiler will, for both addressing forms, so a pinned request
// lands on the replica that owns the specialized artifact.
func TestRouteKeyAssume(t *testing.T) {
	f, err := cnf.ParseDIMACSString(routeDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	base := sampling.HashFormula(f)
	spec := cnf.AssumeKey(base, cnf.CanonicalAssume([]cnf.Lit{-1, 4}))
	pf := f.Clone()
	pf.Projection = []int{3, 1}
	proj := sampling.HashFormula(pf)

	cases := []struct {
		name, url, body, want string
	}{
		{"body-plain", "/v1/sample", routeDIMACS, base},
		{"body-assume", "/v1/sample?assume=4,-1", routeDIMACS, spec},
		{"body-assume-json", "/v1/sample?assume=[-1,4]", routeDIMACS, spec},
		// Both ?project= spellings fold the same sampling set into the key.
		{"body-project-json", "/v1/sample?project=[3,1]", routeDIMACS, proj},
		{"body-project-list", "/v1/sample?project=3,1", routeDIMACS, proj},
		{"key-plain", "/v1/sample?key=" + base, "", base},
		{"key-assume", "/v1/sample?key=" + base + "&assume=-1,4", "", spec},
		// Unparseable pins route keyless; the replica owns the 400.
		{"bad-assume", "/v1/sample?key=" + base + "&assume=1,,x", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := routeFor(t, tc.url, tc.body); got != tc.want {
				t.Fatalf("routeKey = %.16q, want %.16q", got, tc.want)
			}
		})
	}
}
