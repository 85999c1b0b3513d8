package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/cdcs"
	"repro/internal/client"
	"repro/internal/durable"
	"repro/internal/durable/faultfs"
	"repro/internal/load"
	"repro/internal/merging"
	"repro/internal/num"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// Open-loop rates and latency limits. serve-light offers small graphs
// far below capacity, so its latency is serving overhead; serve-paper
// offers the paper mix at about 40% of one replica's capacity on two
// cores (2 slots over ~0.33 s mean synthesis), so jobs queue now and
// then but the backlog does not grow.
const (
	lightRate        = 20.0
	lightLimit       = 100 * time.Millisecond
	paperRate        = 2.5
	paperLimitServed = 3 * time.Second
	// pollInterval is the client.Wait interval cdcs-load uses.
	pollInterval = 20 * time.Millisecond
	// requestDeadline bounds one arrival from submit to terminal state.
	requestDeadline = 30 * time.Second
)

// spec is one request the generator can send, with the check its
// result must pass.
type spec struct {
	key   string
	body  []byte
	check func(res *serve.Result) error
}

// --- server under test ---

// bench is one in-process server with the client transport the
// generator shares across arrivals. In a traced half the transport,
// handler and WAL filesystem are wrapped by timing instruments.
type bench struct {
	srv   *serve.Server
	ts    *httptest.Server
	hc    *http.Client
	plain *http.Client // trace fetches, outside the counted transport
	rt    *timingRT
	mw    *timingHandler
	fs    *timingFS
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// startBench builds a server over a fresh data directory, so the WAL
// is on every submission's path, and warms it with one request.
func startBench(r *run, traced bool) (*bench, error) {
	dir, err := os.MkdirTemp(r.scratch, "data-")
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	b := &bench{}
	cfg := serve.Config{MaxConcurrent: nproc, DataDir: dir, Logger: discardLog}
	if traced {
		b.fs = &timingFS{inner: faultfs.OS()}
		cfg.Durable = durable.Options{FS: b.fs}
	}
	b.srv, err = serve.New(cfg)
	if err != nil {
		return nil, err
	}
	var h http.Handler = b.srv.Handler()
	if traced {
		b.mw = &timingHandler{next: h}
		h = b.mw
	}
	b.ts = httptest.NewServer(h)
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	var rt http.RoundTripper = tr
	if traced {
		b.rt = &timingRT{next: tr}
		rt = b.rt
	}
	b.hc = &http.Client{Transport: rt, Timeout: requestDeadline}
	b.plain = &http.Client{Transport: tr, Timeout: requestDeadline}

	c := client.New(client.Config{BaseURL: b.ts.URL, MaxAttempts: 1, HTTP: b.hc})
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	job, err := c.Submit(ctx, []byte(`{"example":"wan","workload":"warmup","options":{"workers":1}}`))
	if err == nil {
		_, err = c.Wait(ctx, job.ID, pollInterval)
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	b.resetCounters()
	return b, nil
}

func (b *bench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	_ = b.srv.Drain(ctx) // every job has finished; a timeout only leaves WAL records behind
	b.ts.Close()
	b.hc.CloseIdleConnections()
}

func (b *bench) resetCounters() {
	if b.rt != nil {
		b.rt.reset()
		b.mw.reset()
		b.fs.reset()
	}
}

// --- open-loop generator ---

// result is one arrival's outcome.
type result struct {
	key string
	// lat runs from the arrival's due time, sent from the actual send.
	lat, sent   time.Duration
	lag         time.Duration
	wait        time.Duration
	shed        bool
	err         error
	wrong       error
	check       func(*serve.Result) error
	res         *serve.Result
	queueWaitMs float64
}

// openLoop offers specs at a fixed rate for dur: arrival i is due at
// start + i/rate whether or not earlier requests finished. Each
// request is timed from its due time, so a generator or server stall
// shows up in every request it delays, and the generator's own
// lateness is kept as lag. It returns the results and the wall time
// from the first arrival until the last request finished.
//
// internal/load.Run is not reused: its time.Ticker drops ticks when
// the generator falls behind, so the offered rate silently sags under
// load, and its latency clock starts at submit, which hides stalls.
// Like it, each arrival gets a fresh client (clients pin themselves to
// a job's replica) over one shared transport, and waits with
// client.Wait at the 20 ms interval cdcs-load uses.
func openLoop(b *bench, rate float64, dur time.Duration, next func(i int) spec, fetchTrace bool) ([]result, time.Duration) {
	var (
		mu  sync.Mutex
		out []result
		wg  sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		sp := next(i)
		lag := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := sendOne(b, sp, due, fetchTrace)
			res.lag = lag
			mu.Lock()
			out = append(out, res)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// sendOne submits one request and waits for its terminal state.
func sendOne(b *bench, sp spec, due time.Time, fetchTrace bool) result {
	res := result{key: sp.key}
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	c := client.New(client.Config{BaseURL: b.ts.URL, MaxAttempts: 1, HTTP: b.hc})
	t0 := time.Now()
	job, err := c.Submit(ctx, sp.body)
	if err != nil {
		var se *client.StatusError
		res.shed = errors.As(err, &se) && se.Code == http.StatusTooManyRequests
		res.err = err
		return res
	}
	w0 := time.Now()
	fin, err := c.Wait(ctx, job.ID, pollInterval)
	end := time.Now()
	res.lat, res.sent, res.wait = end.Sub(due), end.Sub(t0), end.Sub(w0)
	if err != nil {
		res.err = err
		return res
	}
	if fin.State != serve.StateDone {
		res.err = fmt.Errorf("job %s %s: %s", fin.ID, fin.State, fin.Error)
		return res
	}
	var sr serve.Result
	if err := json.Unmarshal(fin.Result, &sr); err != nil {
		res.err = fmt.Errorf("decode result: %w", err)
		return res
	}
	res.res = &sr
	res.check = sp.check
	if fetchTrace {
		res.queueWaitMs, res.err = queueWait(ctx, b, job.ID)
	}
	return res
}

// queueWait reads the job's serve/queue-wait span from
// GET /v1/jobs/{id}/trace.
func queueWait(ctx context.Context, b *bench, id string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return 0, err
	}
	resp, err := b.plain.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var tr struct {
		Spans []*obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return 0, fmt.Errorf("decode trace of %s: %w", id, err)
	}
	var find func([]*obs.Span) *obs.Span
	find = func(spans []*obs.Span) *obs.Span {
		for _, sp := range spans {
			if sp.Name == "serve/queue-wait" {
				return sp
			}
			if f := find(sp.Children); f != nil {
				return f
			}
		}
		return nil
	}
	sp := find(tr.Spans)
	if sp == nil {
		return 0, fmt.Errorf("trace of %s has no serve/queue-wait span", id)
	}
	return float64(sp.DurUs) / 1000, nil
}

// --- workloads ---

func runServeLight(r *run) (*outcome, error) {
	pool, err := lightPool(r.seed, r.corrupt)
	if err != nil {
		return nil, err
	}
	next := func(i int) spec { return pool[i%len(pool)] }
	return runServe(r, lightRate, lightLimit, next)
}

func runServePaper(r *run) (*outcome, error) {
	ins, err := paperInstances(r.corrupt)
	if err != nil {
		return nil, err
	}
	// cdcs-load's DefaultMix (wan:lan:mcm = 2:2:1, one pricing worker)
	// expanded into its repeating schedule; each block of five arrivals
	// is shuffled by the seed, so the mix is exact per block. Results
	// return the implementation graph so merged sets can be checked.
	var block []spec
	for _, m := range load.DefaultMix() {
		var body map[string]any
		if err := json.Unmarshal([]byte(fmt.Sprintf(m.Body, m.Name)), &body); err != nil {
			return nil, fmt.Errorf("mix entry %s: %w", m.Name, err)
		}
		body["returnGraph"] = true
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		want := ins[m.Name].want
		sp := spec{key: m.Name, body: data, check: func(res *serve.Result) error { return checkServed(want, res) }}
		for i := 0; i < m.Weight; i++ {
			block = append(block, sp)
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	var order []int
	next := func(i int) spec {
		if i%len(block) == 0 {
			order = rng.Perm(len(block))
		}
		return block[order[i%len(block)]]
	}
	return runServe(r, paperRate, paperLimitServed, next)
}

// checkServed compares a served paper result with its golden optimum.
// A result the admission tier degraded need not be optimal, but it
// must still be feasible: no cheaper than the optimum, no dearer than
// point-to-point.
func checkServed(want golden, res *serve.Result) error {
	if res.Degraded {
		if !costEq(res.P2PCost, want.P2PCost) || num.Less(res.Cost, want.Cost) || num.Greater(res.Cost, res.P2PCost) {
			return fmt.Errorf("%s: degraded cost %.9g outside [%.9g, %.9g]", want.Name, res.Cost, want.Cost, res.P2PCost)
		}
		return nil
	}
	merged, err := graphMerged(res.Graph)
	if err != nil {
		return err
	}
	return checkOptimum(want, res.Cost, res.P2PCost, merged)
}

// lightPool builds 64 seeded 5-arc random WAN requests, sent as
// graph+library JSON, each with 5 to 7 candidate mergings to price.
// Synthesis then takes about 3 to 6 ms on one worker: about one
// request in six is done by the client's first poll, and the rest by
// its second even on a machine twice as slow. So the median and p90
// request wait exactly one 20 ms client.Wait interval, and latency is
// serving overhead plus that wait. Smaller graphs race the first poll,
// which splits latency between about 3 ms and about 23 ms in a share
// that moves from run to run; larger ones run past the second poll
// when the machine is busy.
func lightPool(seed int64, corrupt bool) ([]spec, error) {
	rng := rand.New(rand.NewSource(seed))
	lib := workloads.WANLibrary()
	libJSON, err := lib.MarshalJSON()
	if err != nil {
		return nil, err
	}
	var pool []spec
	for tries := 0; len(pool) < 64; tries++ {
		if tries == 100000 {
			return nil, fmt.Errorf("found only %d light graphs in %d tries", len(pool), tries)
		}
		cg := workloads.RandomWAN(workloads.RandomWANConfig{
			Seed: rng.Int63(), Clusters: 4, Channels: 5,
		})
		enum, err := merging.Enumerate(cg, lib, merging.Options{Policy: merging.MaxIndexRef})
		if err != nil {
			return nil, err
		}
		if k := enum.TotalCandidates(); k < 5 || k > 7 {
			continue
		}
		cgJSON, err := cg.MarshalJSON()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{
			"graph": json.RawMessage(cgJSON), "library": json.RawMessage(libJSON),
			"workload": "light", "options": map[string]int{"workers": 1},
		})
		if err != nil {
			return nil, err
		}
		pool = append(pool, spec{key: "light", body: body, check: localCheck(cg, lib, corrupt)})
	}
	return pool, nil
}

// localCheck returns a check that compares a served result with a
// local synthesis of the same graph, computed once on first use.
func localCheck(cg *cdcs.ConstraintGraph, lib *cdcs.Library, corrupt bool) func(*serve.Result) error {
	var (
		once sync.Once
		want *cdcs.Report
		err  error
	)
	return func(res *serve.Result) error {
		once.Do(func() {
			_, want, err = cdcs.SynthesizeContext(context.Background(), cg, lib, cdcs.Options{Workers: 1})
			if err == nil && corrupt {
				want.Cost *= 1.01
			}
		})
		if err != nil {
			return err
		}
		if res.Degraded || !costEq(res.Cost, want.Cost) || !costEq(res.P2PCost, want.P2PCost) {
			return fmt.Errorf("served cost %.9g/%.9g (degraded %v), local %.9g/%.9g",
				res.Cost, res.P2PCost, res.Degraded, want.Cost, want.P2PCost)
		}
		return nil
	}
}

// runServe measures one serve workload: the untraced open loop for
// -trace 0. For -trace 1, four slices alternate between the untraced
// server and a second server with every timing wrapper installed, so a
// slow spell of the machine falls on both.
func runServe(r *run, rate float64, limit time.Duration, next func(i int) spec) (*outcome, error) {
	setupS, b, err := medianSetup(setupRepeats, func() (*bench, error) { return startBench(r, false) }, (*bench).close)
	if err != nil {
		return nil, err
	}
	defer b.close()
	out := &outcome{metrics: map[string]float64{}}
	if !r.trace {
		heap := startHeapSampler()
		plain, wall := openLoop(b, rate, r.seconds, next, false)
		peak := heap.Stop()
		checkServedAll(plain)
		countServed(out, plain)
		lat, _, good := servedStats(plain, limit)
		out.metrics["setup_s"] = setupS
		out.metrics["lat_p50_ms"] = quantile(lat, 0.5)
		out.metrics["lat_p90_ms"] = quantile(lat, 0.9)
		out.metrics["goodput_rps"] = float64(good) / wall.Seconds()
		out.metrics["peak_heap_mb"] = peak
		return out, nil
	}

	tb, err := startBench(r, true)
	if err != nil {
		return nil, err
	}
	defer tb.close()
	var plain, traced []result
	sent := 0
	for slice := 0; slice < 4; slice++ {
		base := sent
		from := func(i int) spec { return next(base + i) }
		if slice%2 == 0 {
			res, _ := openLoop(b, rate, r.seconds/4, from, false)
			plain, sent = append(plain, res...), sent+len(res)
		} else {
			res, _ := openLoop(tb, rate, r.seconds/4, from, true)
			traced, sent = append(traced, res...), sent+len(res)
		}
	}
	checkServedAll(plain)
	checkServedAll(traced)
	countServed(out, plain)
	countServed(out, traced)
	lat, lags, _ := servedStats(plain, limit)
	tlat, _, _ := servedStats(traced, limit)
	out.metrics["loadgen.lag_p90_ms"] = quantile(lags, 0.9)
	out.metrics["trace.overhead_pct"] = overheadPct(tlat, lat)

	synthBy := map[string][]float64{}
	var synth, queue, overhead, wait, savings []float64
	var completed, degraded, shed int
	for _, res := range traced {
		if res.shed {
			shed++
		}
		if res.res == nil || res.err != nil {
			continue
		}
		completed++
		if res.res.Degraded {
			degraded++
		}
		synth = append(synth, res.res.ElapsedMs)
		queue = append(queue, res.queueWaitMs)
		overhead = append(overhead, ms(res.sent)-res.res.ElapsedMs-res.queueWaitMs)
		wait = append(wait, ms(res.wait))
		savings = append(savings, res.res.SavingsPct)
	}
	for _, res := range plain {
		if res.res != nil && res.err == nil {
			synthBy[res.key] = append(synthBy[res.key], res.res.ElapsedMs)
		}
	}
	for _, name := range paperOrder {
		if v := synthBy[name]; len(v) > 0 {
			out.metrics["synth_ms."+name] = median(v)
		}
	}
	out.metrics["savings_pct"] = mean(savings)
	out.metrics["serve.synth_ms"] = median(synth)
	out.metrics["serve.queue_wait_ms.p50"] = quantile(queue, 0.5)
	out.metrics["serve.queue_wait_ms.p90"] = quantile(queue, 0.9)
	out.metrics["serve.overhead_ms"] = median(overhead)
	out.metrics["serve.degraded_rate"] = ratio(float64(degraded), float64(completed))
	out.metrics["serve.shed_rate"] = ratio(float64(shed), float64(len(traced)))
	out.metrics["client.wait_ms"] = median(wait)

	jobs := float64(len(traced))
	submits, polls := tb.rt.durations()
	out.metrics["client.submit_ms"] = median(submits)
	out.metrics["client.requests_per_job"] = ratio(float64(len(submits)+len(polls)), jobs)
	hSubmits, hPolls := tb.mw.durations()
	out.metrics["serve.submit_handler_ms"] = median(hSubmits)
	out.metrics["serve.get_handler_ms"] = median(hPolls)
	syncs, bytes := tb.fs.totals()
	out.metrics["durable.sync_ms"] = median(syncs)
	out.metrics["durable.syncs_per_job"] = ratio(float64(len(syncs)), jobs)
	out.metrics["durable.bytes_per_job"] = ratio(float64(bytes), jobs)
	return out, nil
}

// checkServedAll checks every completed result, after the measured
// window so the checks' own work does not load the server.
func checkServedAll(results []result) {
	for i := range results {
		if res := &results[i]; res.res != nil && res.err == nil {
			res.wrong = res.check(res.res)
		}
	}
}

// countServed tallies arrivals: a shed, failed, timed-out or wrong
// request is a failed operation.
func countServed(out *outcome, results []result) {
	for _, res := range results {
		out.attempted++
		switch {
		case res.err != nil:
			out.failed++
		case res.wrong != nil:
			out.failed++
			out.wrong++
			fmt.Fprintf(os.Stderr, "perfbench: wrong output: %v\n", res.wrong)
		}
	}
}

// servedStats returns the latencies of completed requests, the
// generator's send lag for every arrival, and the number of correct,
// non-degraded completions within the latency limit.
func servedStats(results []result, limit time.Duration) (lat, lags []float64, good int) {
	for _, res := range results {
		lags = append(lags, ms(res.lag))
		if res.res == nil || res.err != nil {
			continue
		}
		lat = append(lat, ms(res.lat))
		if res.wrong == nil && !res.res.Degraded && res.lat <= limit {
			good++
		}
	}
	return lat, lags, good
}

// --- timing wrappers (traced half only) ---

// callLog records the durations, in ms, of the two calls the client
// repeats per job: the submission and the poll.
type callLog struct {
	mu           sync.Mutex
	submit, poll []float64
}

func (c *callLog) add(submit bool, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if submit {
		c.submit = append(c.submit, ms(d))
	} else {
		c.poll = append(c.poll, ms(d))
	}
}

func (c *callLog) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.submit, c.poll = nil, nil
}

func (c *callLog) durations() (submit, poll []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.submit...), append([]float64(nil), c.poll...)
}

// isJobGet matches GET /v1/jobs/{id}, the client's poll.
func isJobGet(r *http.Request) bool {
	return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
		!strings.Contains(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
}

// timingRT counts and times the client's requests: submissions (POST)
// and polls (GET /v1/jobs/{id}), each until the response body is read
// and closed.
type timingRT struct {
	next http.RoundTripper
	callLog
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	post := req.Method == http.MethodPost
	if post || isJobGet(req) {
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.add(post, time.Since(t0)) }}
	}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timingHandler times the server's submit and poll handlers.
type timingHandler struct {
	next http.Handler
	callLog
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/synthesize":
		h.add(true, time.Since(t0))
	case isJobGet(r):
		h.add(false, time.Since(t0))
	}
}

// timingFS is the WAL's filesystem seam with every fsync timed and
// every written byte counted.
type timingFS struct {
	inner faultfs.FS
	mu    sync.Mutex
	syncs []float64
	bytes int64
}

func (f *timingFS) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs, f.bytes = nil, 0
}

func (f *timingFS) totals() ([]float64, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64(nil), f.syncs...), f.bytes
}

func (f *timingFS) MkdirAll(path string, perm fs.FileMode) error { return f.inner.MkdirAll(path, perm) }
func (f *timingFS) Rename(oldpath, newpath string) error         { return f.inner.Rename(oldpath, newpath) }
func (f *timingFS) Remove(name string) error                     { return f.inner.Remove(name) }
func (f *timingFS) ReadFile(name string) ([]byte, error)         { return f.inner.ReadFile(name) }

func (f *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

type timingFile struct {
	faultfs.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.mu.Lock()
	t.fs.bytes += int64(n)
	t.fs.mu.Unlock()
	return n, err
}

func (t *timingFile) Sync() error {
	t0 := time.Now()
	err := t.File.Sync()
	d := time.Since(t0)
	t.fs.mu.Lock()
	t.fs.syncs = append(t.fs.syncs, ms(d))
	t.fs.mu.Unlock()
	return err
}
