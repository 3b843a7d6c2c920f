package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnastore/internal/rng"
	"dnastore/internal/store"
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

// TestRetrieveReadOutOverBudgetFailsTooLarge is the regression test for
// the unbounded retrieve read-out: admission bounds only a retrieve
// spec's coverage, because the pool's size is known only once its file
// is read, so a large pool read at the top coverage, with retries that
// escalate it, used to be simulated in full. The attempt must instead
// fail at once, once the pool is loaded, with an error wrapping
// ErrTooLarge and no requeue. The job deadline bounds the test's own cost
// should the read-out start anyway.
func TestRetrieveReadOutOverBudgetFailsTooLarge(t *testing.T) {
	poolPath := filepath.Join(t.TempDir(), "pool.dnas")
	pool := store.New(store.Options{Seed: 9})
	r := rng.New(9)
	payload := make([]byte, 24<<10)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	if err := pool.Store("big", payload); err != nil {
		t.Fatal(err)
	}
	bases := 0
	for _, s := range pool.DesignedStrands() {
		bases += s.Len()
	}
	// Coverage 1000 passes admission, and eight retries doubling it reach
	// the policy's 8x cap before jitter.
	if float64(bases)*maxCoverage*8 <= maxOutputBases {
		t.Fatalf("fixture: %d designed bases read at %dx and escalated 8x fit the %d-base budget", bases, maxCoverage, maxOutputBases)
	}
	if err := pool.SaveFile(poolPath); err != nil {
		t.Fatal(err)
	}

	s := testServer(t, Config{Workers: 1, MaxAttempts: 3})
	spec := JobSpec{Kind: KindRetrieve, TimeoutMS: 500, Retrieve: &RetrieveSpec{
		PoolPath: poolPath, Key: "big", ErrorRate: 0.01, Coverage: maxCoverage, Seed: 1, Retries: 8, Backoff: 2,
	}}
	start := time.Now()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v (admission cannot see the pool's size)", err)
	}
	st := awaitTerminal(t, j, 30*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, ErrTooLarge.Error()) {
		t.Fatalf("oversized read-out settled %s after %v: %q; want failed with %q", st.State, time.Since(start), st.Error, ErrTooLarge)
	}
	if st.Attempts != 1 {
		t.Errorf("oversized read-out ran %d attempts, want 1: a cost bound is not transient", st.Attempts)
	}
	if got := s.Registry().Snapshot()["dnasimd_job_requeues_total"]; got != 0 {
		t.Errorf("requeues = %v, want 0", got)
	}

	// The same pool read at a modest coverage stays inside the budget.
	spec.Retrieve.Coverage, spec.Retrieve.Retries, spec.TimeoutMS = 14, 0, 0
	if err := checkRetrieveCost(pool, spec.Retrieve); err != nil {
		t.Errorf("14x single-attempt read-out of %d bases refused: %v", bases, err)
	}
}
