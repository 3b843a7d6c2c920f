package fleet

// The dnasimd HTTP contract, asserted once against both executors behind
// the shared front end: the single-node worker pool (server.New) and the
// fleet coordinator. A client must not be able to tell them apart.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dnastore/internal/server"
)

// contractTarget is one executor behind the front end, served over HTTP.
type contractTarget struct {
	url   string
	drain func()
	// hold is the worker's per-transmit delay: set it to keep a job
	// running, zero it to let jobs finish.
	hold *atomic.Int64
}

func contractTargets(t *testing.T) map[string]func(*testing.T) contractTarget {
	return map[string]func(*testing.T) contractTarget{
		"server": func(t *testing.T) contractTarget {
			w := startDrillWorker(t, "", false)
			return contractTarget{url: w.ts.URL, drain: w.srv.Drain, hold: &w.delayNS}
		},
		"fleet": func(t *testing.T) contractTarget {
			w := startDrillWorker(t, t.TempDir(), false)
			coord, err := New(Config{
				Nodes:         []NodeConfig{{Name: "w1", BaseURL: w.url()}},
				ShardClusters: 8,
				DataDir:       t.TempDir(),
				DrainGrace:    2 * time.Second,
				ProbeInterval: -1,
				Client:        drillClientCfg(3),
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			t.Cleanup(coord.Close)
			ts := httptest.NewServer(coord)
			t.Cleanup(ts.Close)
			return contractTarget{url: ts.URL, drain: coord.Drain, hold: &w.delayNS}
		},
	}
}

// exchange is one HTTP exchange with the target.
type exchange struct {
	code int
	hdr  http.Header
	body []byte
	st   server.Status
}

func do(t *testing.T, method, url, key string, body []byte) exchange {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(server.IdempotencyKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	ex := exchange{code: resp.StatusCode, hdr: resp.Header}
	if ex.body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	json.Unmarshal(ex.body, &ex.st)
	return ex
}

func contractSpec(seed uint64) []byte {
	b, _ := json.Marshal(server.JobSpec{Kind: server.KindSimulate, Simulate: &server.SimulateSpec{
		NumRefs: 16, RefLen: 60, Seed: seed, Sub: 0.01, Del: 0.01, Coverage: 2,
	}})
	return b
}

func awaitState(t *testing.T, base, id string, want func(server.JobState) bool) server.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ex := do(t, "GET", base+"/v1/jobs/"+id, "", nil)
		if ex.code == http.StatusOK && want(ex.st.State) {
			return ex.st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s (%d)", id, ex.st.State, ex.code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPContract walks every route and status code of the contract, in
// order, against each executor.
func TestHTTPContract(t *testing.T) {
	for name, mk := range contractTargets(t) {
		t.Run(name, func(t *testing.T) {
			tg := mk(t)
			jobs := tg.url + "/v1/jobs"
			var held, canceled string
			steps := []struct {
				name string
				run  func(t *testing.T)
			}{
				{"submit is 202", func(t *testing.T) {
					tg.hold.Store(int64(20 * time.Millisecond))
					ex := do(t, "POST", jobs, "contract-a", contractSpec(1))
					if ex.code != http.StatusAccepted || ex.st.ID == "" {
						t.Fatalf("submit = %d %q, want 202 with an ID", ex.code, ex.body)
					}
					held = ex.st.ID
				}},
				{"replay is 200", func(t *testing.T) {
					ex := do(t, "POST", jobs, "contract-a", contractSpec(1))
					if ex.code != http.StatusOK || ex.st.ID != held || ex.hdr.Get(server.IdempotencyReplayedHeader) != "true" {
						t.Fatalf("replay = %d id %s replayed %q, want 200 id %s replayed true",
							ex.code, ex.st.ID, ex.hdr.Get(server.IdempotencyReplayedHeader), held)
					}
				}},
				{"status is 200", func(t *testing.T) {
					ex := do(t, "GET", jobs+"/"+held, "", nil)
					if ex.code != http.StatusOK || ex.st.ID != held || ex.st.State == "" {
						t.Fatalf("status = %d %q", ex.code, ex.body)
					}
				}},
				{"result is 409 while running", func(t *testing.T) {
					awaitState(t, tg.url, held, func(s server.JobState) bool { return s == server.StateRunning })
					ex := do(t, "GET", jobs+"/"+held+"/result", "", nil)
					if ex.code != http.StatusConflict || ex.hdr.Get("X-Job-State") == "" {
						t.Fatalf("result while running = %d X-Job-State %q, want 409 with the state",
							ex.code, ex.hdr.Get("X-Job-State"))
					}
				}},
				{"cancel is 202", func(t *testing.T) {
					ex := do(t, "POST", jobs, "", contractSpec(2))
					if ex.code != http.StatusAccepted {
						t.Fatalf("submit = %d", ex.code)
					}
					canceled = ex.st.ID
					if ex = do(t, "DELETE", jobs+"/"+canceled, "", nil); ex.code != http.StatusAccepted || ex.st.ID != canceled {
						t.Fatalf("cancel = %d %q, want 202", ex.code, ex.body)
					}
					tg.hold.Store(0)
					if st := awaitState(t, tg.url, canceled, server.JobState.Terminal); st.State != server.StateCanceled {
						t.Errorf("canceled job settled %s", st.State)
					}
				}},
				{"result is 200 with checksum once done", func(t *testing.T) {
					if st := awaitState(t, tg.url, held, server.JobState.Terminal); st.State != server.StateDone {
						t.Fatalf("held job settled %s: %s", st.State, st.Error)
					}
					ex := do(t, "GET", jobs+"/"+held+"/result", "", nil)
					if ex.code != http.StatusOK || len(ex.body) == 0 {
						t.Fatalf("result = %d with %d bytes", ex.code, len(ex.body))
					}
					if got := ex.hdr.Get(server.BodyChecksumHeader); got != server.BodyChecksum(ex.body) {
						t.Errorf("checksum header %q, body hashes to %s", got, server.BodyChecksum(ex.body))
					}
				}},
				{"unknown ID is 404", func(t *testing.T) {
					for _, ex := range []exchange{
						do(t, "GET", jobs+"/nope", "", nil),
						do(t, "GET", jobs+"/nope/result", "", nil),
						do(t, "DELETE", jobs+"/nope", "", nil),
					} {
						if ex.code != http.StatusNotFound {
							t.Errorf("unknown job = %d, want 404", ex.code)
						}
					}
				}},
				{"bad JSON is 400", func(t *testing.T) {
					if ex := do(t, "POST", jobs, "", []byte(`{"kind":`)); ex.code != http.StatusBadRequest {
						t.Errorf("bad JSON = %d, want 400", ex.code)
					}
				}},
				{"expired deadline is 504", func(t *testing.T) {
					var spec server.JobSpec
					json.Unmarshal(contractSpec(3), &spec)
					spec.DeadlineUnixMS = time.Now().Add(-time.Second).UnixMilli()
					b, _ := json.Marshal(spec)
					if ex := do(t, "POST", jobs, "", b); ex.code != http.StatusGatewayTimeout {
						t.Errorf("expired deadline = %d, want 504", ex.code)
					}
				}},
				{"oversized spec is 413 and shed as too_large", func(t *testing.T) {
					b, _ := json.Marshal(server.JobSpec{Kind: server.KindSimulate, Simulate: &server.SimulateSpec{
						NumRefs: 1 << 20, RefLen: 1 << 16, Seed: 1, Coverage: 6,
					}})
					if ex := do(t, "POST", jobs, "", b); ex.code != http.StatusRequestEntityTooLarge {
						t.Errorf("oversized spec = %d, want 413", ex.code)
					}
					ex := do(t, "GET", tg.url+"/metrics", "", nil)
					if !bytes.Contains(ex.body, []byte(`dnasimd_jobs_shed_total{reason="too_large"} 1`+"\n")) {
						t.Errorf("/metrics has no too_large shed count of 1")
					}
				}},
				{"draining is 503 with an integer Retry-After", func(t *testing.T) {
					tg.drain()
					ex := do(t, "POST", jobs, "contract-fresh", contractSpec(4))
					if ex.code != http.StatusServiceUnavailable {
						t.Fatalf("submit while drained = %d, want 503", ex.code)
					}
					if sec, err := strconv.Atoi(ex.hdr.Get("Retry-After")); err != nil || sec < 1 {
						t.Errorf("Retry-After = %q, want an integer >= 1", ex.hdr.Get("Retry-After"))
					}
				}},
			}
			for _, st := range steps {
				if !t.Run(st.name, st.run) {
					tg.hold.Store(0)
					return
				}
			}
		})
	}
}

// TestReplayWhileDraining: a client that resubmits an admitted
// Idempotency-Key after the drain started must learn its original job ID
// (200 + Idempotency-Replayed), not be shed; and /healthz answers 503 once
// the instance has stopped. The same rule holds for both executors.
func TestReplayWhileDraining(t *testing.T) {
	for name, mk := range contractTargets(t) {
		t.Run(name, func(t *testing.T) {
			tg := mk(t)
			jobs := tg.url + "/v1/jobs"
			first := do(t, "POST", jobs, "drain-replay", contractSpec(5))
			if first.code != http.StatusAccepted {
				t.Fatalf("submit = %d %q", first.code, first.body)
			}
			awaitState(t, tg.url, first.st.ID, server.JobState.Terminal)
			tg.drain()

			ex := do(t, "POST", jobs, "drain-replay", contractSpec(5))
			if ex.code != http.StatusOK || ex.st.ID != first.st.ID || ex.hdr.Get(server.IdempotencyReplayedHeader) != "true" {
				t.Errorf("replay after drain = %d id %q replayed %q (%s), want 200 id %s replayed true",
					ex.code, ex.st.ID, ex.hdr.Get(server.IdempotencyReplayedHeader), bytes.TrimSpace(ex.body), first.st.ID)
			}
			if ex := do(t, "GET", tg.url+"/healthz", "", nil); ex.code != http.StatusServiceUnavailable {
				t.Errorf("/healthz once stopped = %d, want 503", ex.code)
			}
		})
	}
}
