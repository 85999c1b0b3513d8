package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/cdcs"
	"repro/internal/obs"
)

// BatchRequest is the POST /v1/batch body: many named constraint
// graphs fanned out through the bounded job table in one request.
// Each member passes the same tiered admission gate as a single
// POST /v1/synthesize — under one lock hold, so the k-th member sees
// the load its k-1 admitted predecessors created and an oversized
// batch degrades then sheds member-by-member instead of being
// admitted or rejected whole.
type BatchRequest struct {
	// Workload labels the batch in logs and the envelope; defaults to
	// "batch".
	Workload string       `json:"workload,omitempty"`
	Graphs   []BatchGraph `json:"graphs"`
}

// BatchGraph is one batch member: a name (defaulted to its index)
// plus the same spec POST /v1/synthesize accepts.
type BatchGraph struct {
	Name string `json:"name,omitempty"`
	SynthesizeRequest
}

// batch binds the member jobs of one POST /v1/batch. Members are
// immutable after admission — live job state is read through the job
// table under s.mu — so the struct needs no lock of its own.
type batch struct {
	id       string
	workload string
	created  time.Time
	restored bool
	members  []batchMember
	// traceID identifies the batch's distributed trace; every admitted
	// member's serve/job span is a child of the batch root span.
	traceID string
}

// batchMember is one graph's admission outcome: an admitted member
// has a jobID and tier, a shed member has tier TierShed only, an
// undecodable member has err only.
type batchMember struct {
	name  string
	jobID string
	tier  string
	err   string
}

// memberName returns the member name an admitted job was submitted
// under. Members are immutable, so no lock is needed.
func (b *batch) memberName(jobID string) string {
	for _, m := range b.members {
		if m.jobID == jobID {
			return m.name
		}
	}
	return ""
}

// batchMemberJSON is one member in the batch envelope.
type batchMemberJSON struct {
	Name  string `json:"name"`
	Tier  string `json:"tier,omitempty"`
	Error string `json:"error,omitempty"`
	// Job embeds the member's live job view; absent for shed or
	// invalid members (and for members whose job aged out of the
	// retention bound after a restart).
	Job *jobJSON `json:"job,omitempty"`
}

// batchJSON is the GET /v1/batch/{id} shape, and the first NDJSON
// line of a streamed submission.
type batchJSON struct {
	ID       string `json:"id"`
	Workload string `json:"workload,omitempty"`
	Created  string `json:"created"`
	// Restored marks a batch replayed from the durable log after a
	// daemon restart.
	Restored bool `json:"restored,omitempty"`
	// TraceID is the batch's distributed trace identifier; member jobs
	// share it.
	TraceID string `json:"traceId,omitempty"`
	// Done is true once every admitted member reached a terminal
	// state (shed and invalid members are terminal by definition).
	Done    bool              `json:"done"`
	Members []batchMemberJSON `json:"members"`
	Links   batchLinks        `json:"links"`
}

type batchLinks struct {
	Self string `json:"self"`
}

// batchJSONLocked renders the envelope with live member job state.
// Caller holds s.mu (lock order s.mu → j.mu, same as the job listing
// path).
func (s *Server) batchJSONLocked(b *batch) batchJSON {
	out := batchJSON{
		ID:       b.id,
		Workload: b.workload,
		Created:  b.created.UTC().Format(time.RFC3339Nano),
		Restored: b.restored,
		TraceID:  b.traceID,
		Done:     true,
		Members:  make([]batchMemberJSON, 0, len(b.members)),
		Links:    batchLinks{Self: "/v1/batch/" + b.id},
	}
	for _, m := range b.members {
		mj := batchMemberJSON{Name: m.name, Tier: m.tier, Error: m.err}
		if m.jobID != "" {
			if j := s.jobs[m.jobID]; j != nil {
				jj := s.jobView(j)
				mj.Job = &jj
				if jj.State != StateDone && jj.State != StateFailed {
					out.Done = false
				}
			}
		}
		out.Members = append(out.Members, mj)
	}
	return out
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.reg.Counter("serve/batch/rejected").Add(1)
		httpError(w, http.StatusBadRequest, "decode batch: %v", err)
		return
	}
	if len(req.Graphs) == 0 {
		s.reg.Counter("serve/batch/rejected").Add(1)
		httpError(w, http.StatusBadRequest, "empty batch: need at least one graph")
		return
	}
	label := req.Workload
	if label == "" {
		label = "batch"
	}

	// Decode every member before taking the lock: a graph that cannot
	// decode is a per-member error in the envelope (partial
	// acceptance), never a whole-batch reject.
	type decoded struct {
		cg       *cdcs.ConstraintGraph
		lib      *cdcs.Library
		workload string
		err      error
	}
	decs := make([]decoded, len(req.Graphs))
	for i := range req.Graphs {
		g := &req.Graphs[i]
		if g.Name == "" {
			g.Name = fmt.Sprintf("g-%d", i)
		}
		cg, lib, workload, err := decodeInstance(&g.SynthesizeRequest)
		if g.SynthesizeRequest.Workload != "" {
			workload = g.SynthesizeRequest.Workload
		}
		decs[i] = decoded{cg: cg, lib: lib, workload: workload, err: err}
	}

	// The batch root span: members parent under it, so a stitched
	// trace shows the whole fan-out. A propagated traceparent makes
	// the batch a child of the caller's trace.
	parent, propagated := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	bt := obs.NewTracerWithIDs(s.now, s.ids, parent)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reg.Counter("serve/batch/rejected").Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(s.shed.RetryAfter)))
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	bspan := bt.Start(nil, "serve/batch",
		obs.String("workload", label), obs.Int("graphs", len(req.Graphs)))
	b := &batch{
		workload: label,
		created:  s.now(),
		members:  make([]batchMember, len(req.Graphs)),
		traceID:  bspan.Context().TraceID.String(),
	}
	var admitted []*Job
	var evictions []string
	shedCount, invalid := 0, 0
	for i := range req.Graphs {
		g, d, m := &req.Graphs[i], &decs[i], &b.members[i]
		m.name = g.Name
		if d.err != nil {
			m.err = d.err.Error()
			invalid++
			continue
		}
		tier, load := s.tierLocked()
		if tier != TierShed {
			evicted, ok := s.evictLocked()
			if !ok {
				// Table full with nothing finished to evict: this
				// member sheds; later members re-test as jobs finish.
				tier = TierShed
			} else if evicted != "" {
				evictions = append(evictions, evicted)
			}
		}
		m.tier = tier
		if tier == TierShed {
			shedCount++
			continue
		}
		j := s.newJobLocked(g.SynthesizeRequest, d.cg, d.lib, d.workload, tier, bspan.Context(), load)
		m.jobID = j.ID
		admitted = append(admitted, j)
	}
	if len(admitted) == 0 {
		// Nothing entered the table: the batch is not recorded. Sheds
		// still count toward the tier split; an all-invalid batch is a
		// client error.
		s.mu.Unlock()
		s.reg.Counter("serve/shed/" + TierShed).Add(int64(shedCount))
		s.reg.Counter("serve/batch/rejected").Add(1)
		if shedCount > 0 {
			s.log.Warn("batch shed whole",
				"workload", label, "graphs", len(req.Graphs), "shed", shedCount, "invalid", invalid)
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(s.shed.RetryAfter)))
			httpError(w, http.StatusTooManyRequests,
				"overloaded: all %d decodable members shed at or above the shed watermark %d; retry later",
				shedCount, s.shed.ShedAt)
			return
		}
		httpError(w, http.StatusBadRequest,
			"no graph admitted: all %d members invalid (first: %s)", invalid, b.members[0].err)
		return
	}
	s.nextBatch++
	b.id = fmt.Sprintf("b-%06d", s.nextBatch)
	s.batches[b.id] = b
	s.batchOrder = append(s.batchOrder, b.id)
	s.evictBatchesLocked()
	env := s.batchJSONLocked(b)
	s.mu.Unlock()

	// The batch span covers admission (member runs are their own child
	// spans with their own lifetimes); record it now so the trace ring
	// answers for the batch even while members still run.
	bt.End(bspan, obs.Int("admitted", len(admitted)),
		obs.Int("shed", shedCount), obs.Int("invalid", invalid))
	s.countRoot(propagated)
	s.recordTrace(b.traceID, bt.Roots())
	for _, m := range b.members {
		if m.tier != "" {
			s.reg.Counter("serve/shed/" + m.tier).Add(1)
		}
	}
	s.reg.Counter("serve/batch/submitted").Add(1)
	s.reg.Counter("serve/batch/members").Add(int64(len(req.Graphs)))
	s.reg.Counter("serve/jobs_submitted").Add(int64(len(admitted)))
	for _, id := range evictions {
		s.persistEvict(id)
	}
	for _, j := range admitted {
		s.persistJob(j)
	}
	s.persistBatch(b)
	s.log.Info("batch submitted",
		"batch_id", b.id, "workload", label, "graphs", len(req.Graphs),
		"admitted", len(admitted), "shed", shedCount, "invalid", invalid,
		"trace_id", b.traceID)
	for _, j := range admitted {
		go s.runJob(j)
	}

	if r.URL.Query().Get("stream") == "ndjson" {
		s.streamBatch(w, r, b, env, admitted)
		return
	}
	writeJSON(w, http.StatusAccepted, env)
}

// streamBatch writes the admission envelope, then one NDJSON line per
// admitted member as it finishes, in completion order.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, b *batch, env batchJSON, admitted []*Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusAccepted, env)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	if err := enc.Encode(env); err != nil {
		return
	}
	flusher.Flush()

	// Fan in completions. The channel is buffered to len(admitted) so
	// every waiter delivers and exits even if the client disconnects
	// mid-stream — no goroutine outlives its job.
	finished := make(chan *Job, len(admitted))
	for _, j := range admitted {
		j := j
		go func() {
			<-j.Done()
			finished <- j
		}()
	}
	ctx := r.Context()
	for range admitted {
		select {
		case j := <-finished:
			line := struct {
				Name string  `json:"name"`
				Job  jobJSON `json:"job"`
			}{Name: b.memberName(j.ID), Job: s.jobView(j)}
			if err := enc.Encode(line); err != nil {
				return
			}
			flusher.Flush()
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	b := s.batches[id]
	var done []<-chan struct{}
	if b != nil {
		for _, m := range b.members {
			if j := s.jobs[m.jobID]; j != nil {
				done = append(done, j.Done())
			}
		}
	}
	s.mu.Unlock()
	if b == nil {
		httpError(w, http.StatusNotFound, "unknown batch %q", id)
		return
	}
	if !holdDone(w, r, done...) {
		return
	}
	s.mu.Lock()
	env := s.batchJSONLocked(b)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, env)
}

// evictBatchesLocked bounds retained batch envelopes to MaxJobs,
// dropping oldest first. There is no WAL evict record for batches:
// the next snapshot compaction drops evicted envelopes from durable
// state, and restore re-applies the same bound meanwhile.
func (s *Server) evictBatchesLocked() {
	for len(s.batchOrder) > s.cfg.MaxJobs {
		delete(s.batches, s.batchOrder[0])
		s.batchOrder = s.batchOrder[1:]
	}
}
