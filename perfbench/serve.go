package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/client"
	"dnastore/internal/server"
)

// Input shape of the serve workload: serveSpecs seeded simulate jobs of
// serveRefs[i%3] references each, half naive and half staged, run by
// serveCallers closed-loop callers, serveRound jobs per server instance.
// Every serveDupEvery-th operation of a caller resubmits its previous job
// under the same Idempotency-Key.
const (
	serveSpecs    = 96
	serveCallers  = 2
	serveRound    = 128
	serveDupEvery = 8
	// servePoll is the client's status poll interval.
	servePoll = 2 * time.Millisecond
	// serveJobTimeout bounds one job, so a stuck server cannot hang a run.
	serveJobTimeout = 60 * time.Second
)

var serveRefs = []int{16, 32, 48}

// serveRunner drives server.New behind a loopback listener with
// internal/client callers. Each cycle runs one server instance for
// serveRound jobs, so the server's job table (it keeps every job) stays
// the same size however fast the jobs run.
type serveRunner struct {
	seed  uint64
	specs []server.SimulateSpec
	rt    *recordingTransport

	tallies map[string]float64
}

// recordingTransport counts HTTP round trips and keeps the body checksum
// header of every result response, keyed by URL path.
type recordingTransport struct {
	base  *http.Transport
	trips atomic.Int64

	mu        sync.Mutex
	checksums map[string]string
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/result") {
		t.mu.Lock()
		t.checksums[req.URL.Path] = resp.Header.Get(server.BodyChecksumHeader)
		t.mu.Unlock()
	}
	return resp, err
}

func (t *recordingTransport) checksum(id string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checksums["/v1/jobs/"+id+"/result"]
}

func newServe(seed uint64, _ string) (runner, error) {
	naive := channel.NanoporeMix(0.03)
	specs := make([]server.SimulateSpec, serveSpecs)
	for i := range specs {
		sp := server.SimulateSpec{NumRefs: serveRefs[i%len(serveRefs)], RefLen: 110, Seed: seed*1000 + uint64(i), Coverage: 6}
		if i%2 == 0 {
			sp.Sub, sp.Ins, sp.Del = naive.Sub, naive.Ins, naive.Del
		} else {
			sp.Stages, sp.CoverageModel = simStages, "negbin"
		}
		specs[i] = sp
	}
	r := &serveRunner{
		seed:  seed,
		specs: specs,
		rt: &recordingTransport{
			base:      &http.Transport{MaxConnsPerHost: serveCallers, MaxIdleConnsPerHost: serveCallers},
			checksums: map[string]string{},
		},
		tallies: map[string]float64{},
	}
	if c := r.cycle(nil, -1); c.failed > 0 {
		return nil, c.errs[0]
	}
	return r, nil
}

// instance is one running server behind its loopback listener.
type instance struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func startInstance() (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{
		srv:    server.New(server.Config{}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	in.hs = &http.Server{Handler: in.srv}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// stop drains the server, shuts the listener down and waits for both.
func (in *instance) stop() error {
	in.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func (r *serveRunner) cycle(tr *tracer, n int) cycleResult {
	in, err := startInstance()
	if err != nil {
		return failedCycle(0, err)
	}
	cl := client.New(client.Config{
		BaseURL:      in.url,
		HTTPClient:   &http.Client{Transport: r.rt},
		PollInterval: servePoll,
		Seed:         r.seed,
	})
	trips0 := r.rt.trips.Load()
	var (
		next  atomic.Int64
		calls atomic.Int64
		mu    sync.Mutex
		c     cycleResult
		wg    sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < serveCallers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own cycleResult
			var prevKey, prevID string
			var prevSpec server.JobSpec
			for {
				i := int(next.Add(1)) - 1
				if i >= serveRound {
					break
				}
				sim := r.specs[((n+1)*serveRound+i)%len(r.specs)]
				spec := server.JobSpec{Kind: server.KindSimulate, Simulate: &sim}
				key := fmt.Sprintf("c%d-j%d", n, i)
				dup := i%serveDupEvery == serveDupEvery-1 && prevID != ""
				if dup {
					key, spec = prevKey, prevSpec
				}
				t := time.Now()
				id, replayed, err := r.runJob(tr, cl, key, spec, &calls)
				own.lat = append(own.lat, time.Since(t))
				own.attempted++
				if err == nil && dup && (!replayed || id != prevID) {
					err = fmt.Errorf("serve: duplicate of %s under key %q got job %s (replayed=%t)", prevID, key, id, replayed)
				}
				if err != nil {
					own.failed++
					own.errs = append(own.errs, err)
					continue
				}
				if !dup {
					own.items += spec.Simulate.NumRefs
					prevKey, prevID, prevSpec = key, id, spec
				}
			}
			mu.Lock()
			c.items += own.items
			c.lat = append(c.lat, own.lat...)
			c.attempted += own.attempted
			c.failed += own.failed
			c.errs = append(c.errs, own.errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	c.wall = time.Since(t0)
	if tr != nil {
		r.tallies["retries"] += float64(r.rt.trips.Load() - trips0 - calls.Load())
		r.addServerCounts(in.srv.Registry().Snapshot())
	}
	if err := in.stop(); err != nil {
		c.failed++
		c.errs = append(c.errs, fmt.Errorf("serve: stopping the server: %w", err))
	}
	r.rt.base.CloseIdleConnections()
	return c
}

// runJob submits one job, polls it to a terminal state and fetches and
// checks its result. calls counts the client calls made, so retries are
// the HTTP round trips beyond them.
func (r *serveRunner) runJob(tr *tracer, cl *client.Client, key string, spec server.JobSpec, calls *atomic.Int64) (id string, replayed bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), serveJobTimeout)
	defer cancel()
	sc := tr.op()
	sp := tr.begin(sc, "client.submit")
	st, replayed, err := cl.SubmitKeyed(ctx, key, spec)
	calls.Add(1)
	sp.end(1)
	if err != nil {
		return "", false, err
	}
	sp = tr.begin(sc, "client.await")
	polls := 0
	for !st.State.Terminal() && err == nil {
		time.Sleep(servePoll)
		st, err = cl.Status(ctx, st.ID)
		polls++
	}
	calls.Add(int64(polls))
	sp.end(1)
	if err != nil {
		return "", false, err
	}
	if st.State != server.StateDone {
		return st.ID, replayed, fmt.Errorf("serve: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	sp = tr.begin(sc, "client.result")
	body, err := cl.Result(ctx, st.ID)
	calls.Add(1)
	sp.end(1)
	if err != nil {
		return st.ID, replayed, err
	}
	return st.ID, replayed, checkServeResult(body, r.rt.checksum(st.ID), spec.Simulate.NumRefs)
}

// addServerCounts folds one server instance's registry into the tallies.
func (r *serveRunner) addServerCounts(snap map[string]float64) {
	for k, v := range snap {
		switch {
		case strings.HasPrefix(k, "dnasimd_job_seconds_sum"):
			r.tallies["job_s"] += v
		case k == "dnasimd_attempt_seconds_sum":
			r.tallies["attempt_s"] += v
		case k == "dnasimd_jobs_idempotent_replays_total":
			r.tallies["replays"] += v
		case strings.HasPrefix(k, "dnasimd_jobs_shed_total"):
			r.tallies["shed"] += v
		case k == "dnasimd_job_requeues_total":
			r.tallies["requeues"] += v
		}
	}
}

func (r *serveRunner) callers() int         { return serveCallers }
func (r *serveRunner) replay(*tracer) error { return nil }

func (r *serveRunner) counts() map[string]float64 {
	t := r.tallies
	return map[string]float64{
		"server.queue_wait_s": t["job_s"] - t["attempt_s"],
		"server.attempt_s":    t["attempt_s"],
		"server.replays":      t["replays"],
		"server.shed":         t["shed"],
		"server.requeues":     t["requeues"],
		"client.retries":      t["retries"],
	}
}

func (r *serveRunner) close() error {
	r.rt.base.CloseIdleConnections()
	return nil
}
