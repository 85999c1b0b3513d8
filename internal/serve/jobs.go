package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/cdcs"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// SynthesizeRequest is the POST /v1/synthesize body. Either Example
// names a built-in instance ("wan", "mpeg4") or Graph and Library
// carry the JSON forms the cdcs CLI consumes.
type SynthesizeRequest struct {
	Example string          `json:"example,omitempty"`
	Graph   json.RawMessage `json:"graph,omitempty"`
	Library json.RawMessage `json:"library,omitempty"`
	// Workload labels the job in logs and listings; defaults to
	// Example or "graph".
	Workload string `json:"workload,omitempty"`
	// ReturnGraph includes the synthesized implementation graph JSON
	// in the job result (off by default: results are retained in
	// memory).
	ReturnGraph bool           `json:"returnGraph,omitempty"`
	Options     RequestOptions `json:"options"`
}

// RequestOptions mirrors the cdcs.Options knobs that make sense per
// request.
type RequestOptions struct {
	Greedy             bool  `json:"greedy,omitempty"`
	StrictPruning      bool  `json:"strictPruning,omitempty"`
	KeepDominated      bool  `json:"keepDominated,omitempty"`
	MaxMergeArity      int   `json:"maxMergeArity,omitempty"`
	MaxCandidates      int   `json:"maxCandidates,omitempty"`
	TruncateCandidates bool  `json:"truncateCandidates,omitempty"`
	Workers            int   `json:"workers,omitempty"`
	TimeoutMs          int64 `json:"timeoutMs,omitempty"`
}

// Result is the machine-readable outcome of a finished job — the same
// fields the cdcs CLI's -report emits, so scripts assert one schema
// everywhere.
type Result struct {
	Channels    int             `json:"channels"`
	Cost        float64         `json:"cost"`
	P2PCost     float64         `json:"p2pCost"`
	SavingsPct  float64         `json:"savingsPercent"`
	Optimal     bool            `json:"optimal"`
	Degraded    bool            `json:"degraded"`
	Degradation []string        `json:"degradation"`
	GapBound    float64         `json:"gapBound"`
	Incumbents  int             `json:"incumbents"`
	ElapsedMs   float64         `json:"elapsedMs"`
	Graph       json.RawMessage `json:"graph,omitempty"`
}

// Job is one submitted synthesis. State transitions queued → running →
// done|failed; Events carries its live progress stream and survives
// completion for SSE replay.
type Job struct {
	ID       string
	Workload string

	// now is the server's clock, injected for deterministic
	// job-lifetime tests.
	now func() time.Time
	// restarted marks a job the daemon re-queued (or restored) after
	// replaying a crash-interrupted run.
	restarted bool
	// admission is the tier the job was admitted at (TierDegrade
	// only; the common accepted tier is left empty in JSON).
	admission string
	// effTimeout, when set, caps the job's synthesis budget — the
	// degrade tier's tightened deadline.
	effTimeout time.Duration
	// specRaw preserves the submitted spec verbatim for snapshot
	// compaction of restored jobs (whose req was never re-decoded).
	specRaw json.RawMessage

	// tracer records the job's span forest; span is its serve/job
	// root, queueSpan the admission-to-slot wait. sc/traceID are the
	// root's identity — set once before the job is visible (or at
	// restore), immutable after, so they are read without j.mu.
	// tracer is nil only for jobs restored in a terminal state.
	tracer    *obs.Tracer
	span      *obs.Span
	queueSpan *obs.Span
	sc        obs.SpanContext
	traceID   string

	// mu guards the lifecycle fields below. Like Server.mu, it must
	// be released before any durable store call (the durable()
	// snapshot is built under it, then persisted by the caller):
	//
	//cdcsvet:lockorder Job.mu -> durable.Store
	mu       sync.Mutex
	state    string
	created  time.Time
	started  time.Time
	finished time.Time
	result   *Result
	errMsg   string

	events *obs.Events
	done   chan struct{}

	req SynthesizeRequest
	cg  *cdcs.ConstraintGraph
	lib *cdcs.Library
}

// jobJSON is the GET /v1/jobs/{id} shape.
type jobJSON struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	State    string `json:"state"`
	Created  string `json:"created"`
	// Restarted marks a job that was re-queued (or restored) from the
	// durable log after a daemon restart.
	Restarted bool `json:"restarted,omitempty"`
	// Admission reports a non-default admission tier ("degraded").
	Admission string `json:"admission,omitempty"`
	// Server names the fleet replica the job lives on (set only when
	// fleet routing is configured): after a peer forward, the address
	// the client must ask.
	Server string `json:"server,omitempty"`
	// TraceID is the job's distributed trace identifier (32 hex
	// digits); clients collect the cross-replica trace with it.
	TraceID string  `json:"traceId,omitempty"`
	Error   string  `json:"error,omitempty"`
	Result  *Result `json:"result,omitempty"`
	Links   links   `json:"links"`
}

type links struct {
	Self   string `json:"self"`
	Events string `json:"events"`
	Trace  string `json:"trace"`
}

func (j *Job) json() jobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobJSON{
		ID:        j.ID,
		Workload:  j.Workload,
		State:     j.state,
		Created:   j.created.UTC().Format(time.RFC3339Nano),
		Restarted: j.restarted,
		Admission: j.admission,
		TraceID:   j.traceID,
		Error:     j.errMsg,
		Result:    j.result,
		Links: links{
			Self:   "/v1/jobs/" + j.ID,
			Events: "/v1/jobs/" + j.ID + "/events",
			Trace:  "/v1/jobs/" + j.ID + "/trace",
		},
	}
}

func (j *Job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	switch state {
	case StateRunning:
		j.started = j.now()
	case StateDone, StateFailed:
		j.finished = j.now()
	}
}

// State returns the job's current state string.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeInstance resolves the request into a constraint graph and
// library, either from a built-in example or from the embedded JSON.
func decodeInstance(req *SynthesizeRequest) (*cdcs.ConstraintGraph, *cdcs.Library, string, error) {
	switch req.Example {
	case "wan":
		return workloads.WAN(), workloads.WANLibrary(), "wan", nil
	case "lan":
		return workloads.LAN(), workloads.LANLibrary(), "lan", nil
	case "mcm":
		return workloads.MCM(), workloads.MCMLibrary(), "mcm", nil
	case "noc":
		return workloads.NoC(), workloads.NoCLibrary(), "noc", nil
	case "mpeg4":
		return workloads.MPEG4(), workloads.MPEG4Technology().Library(), "mpeg4", nil
	case "":
	default:
		return nil, nil, "", fmt.Errorf("unknown example %q (wan, lan, mcm, noc, mpeg4)", req.Example)
	}
	if len(req.Graph) == 0 || len(req.Library) == 0 {
		return nil, nil, "", errors.New("need graph and library, or example")
	}
	cg, err := cdcs.DecodeConstraintGraph(req.Graph)
	if err != nil {
		return nil, nil, "", err
	}
	lib, err := cdcs.DecodeLibrary(req.Library)
	if err != nil {
		return nil, nil, "", err
	}
	return cg, lib, "graph", nil
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	// Buffer the body: a fleet forward re-sends the same bytes to the
	// workload's owner.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var req SynthesizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	cg, lib, workload, err := decodeInstance(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Workload != "" {
		workload = req.Workload
	}
	if s.maybeForward(w, r, body, workload) {
		return
	}
	// The propagated upstream trace context, when the caller sent a
	// well-formed traceparent; the zero value means "start a fresh
	// root" — a malformed header degrades to that, never to an error.
	parent, propagated := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(s.shed.RetryAfter)))
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Tiered admission: accept at full budget, accept with a
	// tightened budget, or shed — decided by the unfinished-job load
	// against the watermarks, before any table mutation.
	tier, load := s.tierLocked()
	if tier == TierShed {
		s.mu.Unlock()
		s.reg.Counter("serve/shed/" + TierShed).Add(1)
		s.log.Warn("job shed",
			"tier", TierShed, "load", load, "shed_at", s.shed.ShedAt,
			"workload", workload)
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(s.shed.RetryAfter)))
		httpError(w, http.StatusTooManyRequests,
			"overloaded: %d unfinished jobs at or above the shed watermark %d; retry later",
			load, s.shed.ShedAt)
		return
	}
	evicted, ok := s.evictLocked()
	if !ok {
		s.mu.Unlock()
		s.reg.Counter("serve/jobs_rejected").Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(s.shed.RetryAfter)))
		httpError(w, http.StatusTooManyRequests,
			"job table full (%d jobs, none finished)", s.cfg.MaxJobs)
		return
	}
	j := s.newJobLocked(req, cg, lib, workload, tier, parent, load)
	s.mu.Unlock()

	s.countRoot(propagated)
	s.reg.Counter("serve/shed/" + tier).Add(1)
	s.reg.Counter("serve/jobs_submitted").Add(1)
	if evicted != "" {
		s.persistEvict(evicted)
	}
	s.persistJob(j)
	s.log.Info("job submitted",
		"job_id", j.ID, "workload", j.Workload, "tier", tier, "load", load,
		"trace_id", j.traceID, "queue_cap", s.cfg.MaxConcurrent)
	go s.runJob(j)
	writeJSON(w, http.StatusAccepted, s.jobView(j))
}

// newJobLocked creates and registers one admitted job. Caller holds
// s.mu, has classified the tier (not TierShed) and made room with
// evictLocked; the caller persists the job and starts runJob after
// releasing the lock.
func (s *Server) newJobLocked(req SynthesizeRequest, cg *cdcs.ConstraintGraph, lib *cdcs.Library, workload, tier string, parent obs.SpanContext, load int) *Job {
	s.nextID++
	j := &Job{
		ID:       fmt.Sprintf("j-%06d", s.nextID),
		Workload: workload,
		now:      s.now,
		state:    StateQueued,
		created:  s.now(),
		events:   obs.NewEvents(s.cfg.EventBuffer, nil),
		done:     make(chan struct{}),
		req:      req,
		cg:       cg,
		lib:      lib,
	}
	if tier == TierDegrade {
		j.admission = TierDegrade
		j.effTimeout = s.shed.DegradedTimeout
	}
	s.initJobTrace(j, parent, tier, load)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.active++
	s.wg.Add(1)
	return j
}

// initJobTrace gives j its per-job tracer: a serve/job root span
// (joining the propagated upstream trace when parent is valid, else a
// fresh root), a closed serve/admission child recording the tier
// decision, and an open serve/queue-wait child that runJob closes when
// the job wins a concurrency slot. The job's event stream is stamped
// so every SSE line carries the trace correlation.
func (s *Server) initJobTrace(j *Job, parent obs.SpanContext, tier string, load int) {
	j.tracer = obs.NewTracerWithIDs(s.now, s.ids, parent)
	j.span = j.tracer.Start(nil, "serve/job",
		obs.String("job_id", j.ID), obs.String("workload", j.Workload))
	j.sc = j.span.Context()
	j.traceID = j.sc.TraceID.String()
	adm := j.tracer.Start(j.span, "serve/admission",
		obs.String("tier", tier), obs.Int("load", load))
	j.tracer.End(adm)
	j.queueSpan = j.tracer.Start(j.span, "serve/queue-wait")
	j.events.SetTrace(j.traceID, j.sc.SpanID.String())
}

// traceparent serializes the job root's span context ("" untraced).
func (j *Job) traceparent() string {
	if !j.sc.Valid() {
		return ""
	}
	return j.sc.Traceparent()
}

// testJobStartHook, when non-nil, is called by runJob after a job has
// acquired its concurrency slot and entered StateRunning, before
// synthesis begins. Tests use it to hold a job in the running state so
// the table can be filled with a known mix of finished, running and
// queued jobs. Access only through setTestJobStartHook/jobStartHook:
// runJob goroutines can outlive the test that installed the hook, so
// the bare variable would race with teardown clearing it.
var (
	testHookMu       sync.Mutex
	testJobStartHook func(j *Job)
)

func setTestJobStartHook(fn func(j *Job)) {
	testHookMu.Lock()
	defer testHookMu.Unlock()
	testJobStartHook = fn
}

func jobStartHook() func(j *Job) {
	testHookMu.Lock()
	defer testHookMu.Unlock()
	return testJobStartHook
}

// evictLocked makes room for one more job, dropping finished jobs
// oldest-first. It reports whether the table has room, and the ID it
// evicted (if any) so the caller can log the eviction to the WAL
// after releasing s.mu.
func (s *Server) evictLocked() (evicted string, ok bool) {
	if len(s.jobs) < s.cfg.MaxJobs {
		return "", true
	}
	for i, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		st := j.State()
		if st == StateDone || st == StateFailed {
			delete(s.jobs, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			return id, true
		}
	}
	return "", false
}

// runJob owns a job goroutine: wait for a concurrency slot, run the
// synthesis with a per-job sink (shared metrics registry, private
// event stream), record the outcome, close the stream so SSE tails
// end.
func (s *Server) runJob(j *Job) {
	defer s.wg.Done()
	defer close(j.done)
	defer j.events.Close()
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()

	log := s.log.With("job_id", j.ID, "workload", j.Workload, "trace_id", j.traceID)
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-s.runCtx.Done():
		j.mu.Lock()
		j.errMsg = "server shut down before the job started"
		j.mu.Unlock()
		// Close out the trace before the state flips: a client that sees
		// a terminal state must find the span forest complete.
		j.tracer.End(j.queueSpan)
		j.tracer.End(j.span, obs.String("outcome", "aborted"))
		s.recordTrace(j.traceID, j.tracer.Roots())
		j.setState(StateFailed)
		s.reg.Counter("serve/jobs_failed").Add(1)
		// Deliberately not persisted as failed: in the durable log the
		// job stays queued, so the next start re-queues it instead of
		// fossilizing a shutdown race as a permanent failure.
		log.Warn("job aborted", "reason", "drain before start")
		return
	}

	j.tracer.End(j.queueSpan)
	j.setState(StateRunning)
	s.persistState(j, StateRunning)
	if hook := jobStartHook(); hook != nil {
		hook(j)
	}
	inflight := s.reg.Gauge("serve/jobs_inflight")
	inflight.Add(1)
	defer inflight.Add(-1)
	log.Info("job started", "channels", j.cg.NumChannels())

	// The job's sink: counters land in the server-wide registry (the
	// /metrics scrape target), events go straight into the job's own
	// stream — created at submission time, so SSE subscribers attached
	// while the job was still queued miss nothing — and the synth
	// phase tree lands in the job's tracer, nested under the serve/job
	// root via the context below. The run context is the server's:
	// Drain cancels it and the flow degrades to its incumbent instead
	// of dying.
	sink := obs.New(obs.Config{
		Registry:    s.reg,
		EventStream: j.events,
		Tracer:      j.tracer,
	})
	ro := j.req.Options
	opt := cdcs.Options{
		Greedy:             ro.Greedy,
		StrictPruning:      ro.StrictPruning,
		KeepDominated:      ro.KeepDominated,
		MaxMergeArity:      ro.MaxMergeArity,
		MaxCandidates:      ro.MaxCandidates,
		TruncateCandidates: ro.TruncateCandidates,
		Workers:            ro.Workers,
		Observer:           sink,
	}
	if ro.TimeoutMs > 0 {
		opt.Timeout = time.Duration(ro.TimeoutMs) * time.Millisecond
	}
	// The degrade tier tightens the budget: the anytime solver then
	// returns its best incumbent at the cap instead of running long.
	if j.effTimeout > 0 && (opt.Timeout == 0 || opt.Timeout > j.effTimeout) {
		opt.Timeout = j.effTimeout
		log.Info("degraded admission budget applied", "timeout", opt.Timeout.String())
	}

	start := s.now()
	runCtx := obs.ContextWithSpan(s.runCtx, j.span)
	ig, rep, err := cdcs.SynthesizeContext(runCtx, j.cg, j.lib, opt)
	s.reg.Histogram("serve/job_duration_ms", 1, 10, 100, 1_000, 10_000).
		Record(s.now().Sub(start).Milliseconds())
	if err != nil {
		j.mu.Lock()
		j.errMsg = err.Error()
		j.mu.Unlock()
		// Trace first, state second: terminal state implies a complete
		// span forest on /trace.
		j.tracer.End(j.span, obs.String("outcome", "failed"))
		s.recordTrace(j.traceID, j.tracer.Roots())
		j.setState(StateFailed)
		s.persistResult(j)
		s.reg.Counter("serve/jobs_failed").Add(1)
		log.Error("job failed", "error", err.Error())
		return
	}

	res := &Result{
		Channels:    j.cg.NumChannels(),
		Cost:        rep.Cost,
		P2PCost:     rep.P2PCost,
		SavingsPct:  rep.SavingsPercent(),
		Optimal:     rep.ResultOptimal(),
		Degraded:    rep.Degradation.Degraded(),
		Degradation: rep.Degradation.Summary(),
		GapBound:    rep.Degradation.GapBound,
		Incumbents:  rep.UCPStats.Incumbents,
		ElapsedMs:   float64(rep.Elapsed.Microseconds()) / 1000,
	}
	if res.Degradation == nil {
		res.Degradation = []string{}
	}
	if j.req.ReturnGraph {
		if data, merr := json.Marshal(ig); merr == nil {
			res.Graph = data
		}
	}
	j.mu.Lock()
	j.result = res
	j.mu.Unlock()
	// Trace first, state second: terminal state implies a complete
	// span forest on /trace.
	j.tracer.End(j.span, obs.String("outcome", "done"))
	s.recordTrace(j.traceID, j.tracer.Roots())
	j.setState(StateDone)
	s.persistResult(j)
	s.reg.Counter("serve/jobs_completed").Add(1)
	log.Info("job done",
		"cost", res.Cost,
		"optimal", res.Optimal,
		"degraded", res.Degraded,
		"elapsed_ms", res.ElapsedMs,
	)
}

func (s *Server) getJob(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// maxHold caps a GET's ?wait= hold, so a client asking for longer
// re-issues the request at least this often.
const maxHold = time.Minute

// holdDone holds a job or batch GET for its optional ?wait=<Go
// duration>, capped at maxHold, until every done channel has closed,
// the duration passes, or the request ends. It ignores runCtx on
// purpose: a drain finishes every job, which closes the channels. A
// malformed or negative duration is answered 400 and reported false.
func holdDone(w http.ResponseWriter, r *http.Request, done ...<-chan struct{}) bool {
	v := r.URL.Query().Get("wait")
	d, err := time.ParseDuration(cmp.Or(v, "0"))
	if err != nil || d < 0 {
		httpError(w, http.StatusBadRequest, "wait=%q is not a non-negative duration (e.g. 10s)", v)
		return false
	}
	timer := time.NewTimer(min(d, maxHold))
	defer timer.Stop()
	for _, ch := range done {
		select {
		case <-ch:
		case <-timer.C:
			return true
		case <-r.Context().Done():
			return true
		}
	}
	return true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if holdDone(w, r, j.Done()) {
		writeJSON(w, http.StatusOK, s.jobView(j))
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobJSON, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			out = append(out, s.jobView(j))
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleJobEvents streams the job's progress as Server-Sent Events:
// first the bounded retained history (replay), then the live tail —
// Subscribe snapshots both under one lock, so the sequence numbers the
// client sees are contiguous. The stream ends when the job finishes
// (its event stream closes) or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.events.Subscribe(0)
	defer cancel()
	write := func(ev obs.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				// Job finished: emit a terminal comment so curl users
				// see a clean end-of-stream marker.
				fmt.Fprintf(w, ": stream closed (job %s)\n\n", j.State())
				flusher.Flush()
				return
			}
			if !write(ev) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.reg.Snapshot().Prometheus())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version := s.cfg.Version
	if version == "" {
		version = "unknown"
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status":  "ok",
		"version": version,
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}
