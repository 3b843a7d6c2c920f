package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// oversizedSpecs each pass every check but the cost bound: the largest
// generated set at the longest reference length, a tiny set at an
// absurd coverage, explicit references whose bases times coverage are
// over the budget, and a retrieval read out at an absurd coverage.
func oversizedSpecs() map[string]JobSpec {
	long := strings.Repeat("ACGT", 1<<14)
	refs := make([]string, 64)
	for i := range refs {
		refs[i] = long
	}
	return map[string]JobSpec{
		"max refs at max length": {Kind: KindSimulate, Simulate: &SimulateSpec{NumRefs: 1 << 20, RefLen: 1 << 16, Coverage: 6}},
		"absurd coverage":        {Kind: KindSimulate, Simulate: &SimulateSpec{NumRefs: 4, RefLen: 8, Coverage: 1e9}},
		"explicit refs":          {Kind: KindSimulate, Simulate: &SimulateSpec{Refs: refs, Coverage: 500}},
		"retrieve coverage":      {Kind: KindRetrieve, Retrieve: &RetrieveSpec{PoolPath: "pool", Key: "k", Coverage: 1e6}},
	}
}

// TestOversizedSpecsShedTooLarge is the regression test for unbounded spec
// cost: a spec whose output would not fit in memory used to pass
// validation and be buffered whole. Each must now be refused at admission
// with 413, which clients do not retry, and counted as shed with reason
// too_large, while the server stays up and keeps serving.
func TestOversizedSpecsShedTooLarge(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	specs := oversizedSpecs()
	for name, spec := range specs {
		if err := spec.Validate(); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: Validate = %v, want ErrTooLarge", name, err)
		}
		if resp, _ := postJob(t, ts, spec); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", name, resp.StatusCode)
		}
	}
	if got := scrapeMetric(t, ts, `dnasimd_jobs_shed_total{reason="too_large"}`); got != float64(len(specs)) {
		t.Errorf("too_large shed counter = %v, want %d", got, len(specs))
	}
	if got := scrapeMetric(t, ts, "dnasimd_jobs_submitted_total"); got != 0 {
		t.Errorf("submitted counter = %v, want 0: no oversized job may be admitted", got)
	}

	// The load harness's largest spec stays far inside the budget.
	huge := JobSpec{Kind: KindSimulate, Simulate: &SimulateSpec{NumRefs: 8000, RefLen: 120, Coverage: 5}}
	if err := huge.Validate(); err != nil {
		t.Errorf("dnaload's huge spec rejected: %v", err)
	}
	// And the server still runs work.
	resp, st := postJob(t, ts, simSpec(81))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small submit after the oversized ones = %d", resp.StatusCode)
	}
	j, ok := s.Job(st.ID)
	if !ok {
		t.Fatalf("job %s unknown", st.ID)
	}
	waitFor(t, 10*time.Second, func() bool { return j.State().Terminal() })
	if got := j.Snapshot(); got.State != StateDone {
		t.Errorf("small job settled %s: %s", got.State, got.Error)
	}
}
