package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"dnastore/internal/obs"
)

// retryAfterFixture builds the front end over just enough of a worker pool
// to exercise the one Retry-After clamp without spinning up workers.
func retryAfterFixture(t *testing.T, est time.Duration, workers, backlog int) *Server {
	t.Helper()
	s := &Server{
		cfg:   Config{EstimatedJobTime: est, Workers: workers},
		queue: newJobQueue(backlog + 1),
		dog:   newWatchdog(time.Hour, -1, nil),
	}
	s.Frontend = NewFrontend(s, FrontendConfig{
		IDPrefix: "j", DrainGrace: time.Minute, Logger: obs.Discard(), Registry: obs.NewRegistry(),
	})
	t.Cleanup(s.dog.close)
	for i := 0; i < backlog; i++ {
		if err := s.queue.push(&Job{ID: "queued"}); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	return s
}

// TestRetryAfterIsValidDeltaSeconds covers the RFC 9110 contract while
// serving: the value is a positive integer number of seconds — a
// sub-second or zero estimate must not surface as 0 (which tells clients
// "retry immediately", defeating the shed), and an absurd estimate is
// capped rather than converted through an out-of-range float→int.
func TestRetryAfterIsValidDeltaSeconds(t *testing.T) {
	cases := []struct {
		name    string
		est     time.Duration
		workers int
		backlog int
		want    int
	}{
		{"sub-second estimate clamps to 1", 10 * time.Millisecond, 4, 0, 1},
		{"zero backlog sub-second", 900 * time.Millisecond, 1, 0, 1},
		{"fractional rounds up", 1250 * time.Millisecond, 1, 0, 2},
		{"backlog scales estimate", 2 * time.Second, 2, 3, 4},
		{"zero workers treated as one", time.Second, 0, 1, 2},
		{"absurd estimate caps at one hour", 1 << 62, 1, 8, maxRetryAfterSeconds},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := retryAfterFixture(t, tc.est, tc.workers, tc.backlog)
			got := s.retryAfter()
			if got != tc.want {
				t.Fatalf("retryAfter() = %d, want %d", got, tc.want)
			}
			if got < 1 {
				t.Fatalf("retryAfter() = %d, violates delta-seconds >= 1", got)
			}
		})
	}
}

// TestRetryAfterHintClamp: once draining, the hint is the rest of the
// drain window, still a positive integer bounded by an hour whatever the
// drain configuration says.
func TestRetryAfterHintClamp(t *testing.T) {
	s := retryAfterFixture(t, time.Second, 1, 0)
	s.phase = PhaseDraining
	s.drainStarted = time.Now()
	s.drainGrace = 5 * time.Second
	if got := s.retryAfter(); got < 1 || got > 5 {
		t.Errorf("draining hint = %d, want within the 5s grace", got)
	}
	s.drainGrace = 48 * time.Hour
	if got := s.retryAfter(); got != maxRetryAfterSeconds {
		t.Errorf("oversized grace hint = %d, want clamp to %d", got, maxRetryAfterSeconds)
	}
	s.drainGrace = -time.Hour
	if got := s.retryAfter(); got != 1 {
		t.Errorf("expired grace hint = %d, want floor 1", got)
	}
}

// TestShedHeaderParsesAsInteger asserts the header a shed client actually
// sees: present, parseable with strconv.Atoi (no fractional seconds, no
// HTTP-date), and at least 1 — even when EstimatedJobTime is far below a
// second.
func TestShedHeaderParsesAsInteger(t *testing.T) {
	s := retryAfterFixture(t, 5*time.Millisecond, 1, 1)
	if err := s.queue.push(&Job{ID: "queued"}); err != nil { // now full
		t.Fatalf("push: %v", err)
	}
	body, _ := json.Marshal(simSpec(1))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))

	if w.Code != 503 {
		t.Fatalf("shed status = %d, want 503", w.Code)
	}
	h := w.Header().Get("Retry-After")
	if h == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	sec, err := strconv.Atoi(h)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", h, err)
	}
	if sec < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", sec)
	}
	if got := s.Registry().Snapshot()[`dnasimd_jobs_shed_total{reason="queue_full"}`]; got != 1 {
		t.Fatalf("shed counter = %v, want 1", got)
	}
}

// TestShedWhileScraping: counting a shed registers its reason's series
// while a scrape holds the registry and reads the jobs_tracked gauge, which
// takes the front-end lock; neither may wait on the other.
func TestShedWhileScraping(t *testing.T) {
	s := retryAfterFixture(t, time.Second, 1, 1)
	if err := s.queue.push(&Job{ID: "queued"}); err != nil { // now full
		t.Fatalf("push: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			s.Registry().Snapshot()
		}
	}()
	for i := 0; i < 500; i++ {
		if _, err := s.Submit(simSpec(uint64(i))); err == nil {
			t.Fatal("a full queue admitted a job")
		}
	}
	<-done
}
