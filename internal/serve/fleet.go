package serve

import (
	"bytes"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// forwardedHeader marks a submission one replica already forwarded.
// A forwarded request is always admitted (or shed) locally — never
// re-forwarded — so routing disagreements or stale peer lists cannot
// bounce a job around the fleet.
const forwardedHeader = "X-Cdcs-Forwarded"

// fleetHTTPTimeout bounds one peer forward. Submissions answer
// immediately (202/429), so a slow peer means a struggling peer: fall
// back to local admission rather than stall the client.
const fleetHTTPTimeout = 10 * time.Second

// maybeForward forwards the raw submission body to the workload's
// rendezvous owner when this replica is past its degrade watermark
// and does not own the key. It reports whether the response was
// written (the job now lives on the peer; the passed-through envelope
// carries the peer's address in its server field). Any forward
// failure falls back to local tiered admission — forwarding is an
// optimization, never a correctness dependency.
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, body []byte, workload string) bool {
	if s.fleet == nil || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	s.mu.Lock()
	tier, load := s.tierLocked()
	draining := s.draining
	s.mu.Unlock()
	if draining || tier == TierAccept {
		return false
	}
	owner := s.fleet.Route(workload)
	if owner == s.fleet.Self() {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		owner+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, s.fleet.Self())
	// The forward hop is a span of its own: it joins the caller's
	// trace (or roots a fresh one) and re-injects its context as the
	// outgoing traceparent, so the owner replica's serve/job span
	// parents under this replica's forward span and a stitched trace
	// shows the full hop chain.
	parent, propagated := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	ft := obs.NewTracerWithIDs(s.now, s.ids, parent)
	fspan := ft.Start(nil, "serve/forward",
		obs.String("peer", owner), obs.String("workload", workload))
	req.Header.Set(obs.TraceparentHeader, fspan.Context().Traceparent())
	traceID := fspan.Context().TraceID.String()
	s.countRoot(propagated)
	resp, err := s.fleetClient.Do(req)
	if err != nil {
		ft.End(fspan, obs.String("outcome", "failed"))
		s.recordTrace(traceID, ft.Roots())
		s.reg.Counter("fleet/forward_failed").Add(1)
		s.log.Warn("peer forward failed; admitting locally",
			"peer", owner, "workload", workload, "trace_id", traceID, "error", err.Error())
		return false
	}
	defer resp.Body.Close()
	ft.End(fspan, obs.Int("status", resp.StatusCode))
	s.recordTrace(traceID, ft.Roots())
	s.reg.Counter("fleet/forwarded").Add(1)
	s.log.Info("job forwarded",
		"peer", owner, "workload", workload, "load", load,
		"trace_id", traceID, "status", resp.StatusCode)
	// Pass the owner's answer through verbatim: its job envelope names
	// the owner in the server field, so the client waits on the right
	// replica; its Retry-After still applies if the owner shed too.
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// fleetJSON is the GET /v1/fleet shape.
type fleetJSON struct {
	Enabled bool     `json:"enabled"`
	Self    string   `json:"self,omitempty"`
	Peers   []string `json:"peers,omitempty"`
	// Load is the unfinished-job count the admission tiers are judged
	// against, with its two watermarks.
	Load      int `json:"load"`
	DegradeAt int `json:"degradeAt"`
	ShedAt    int `json:"shedAt"`
	// Forwarded / ForwardFailed count submissions this replica handed
	// to (or failed to hand to) their rendezvous owner.
	Forwarded     int64 `json:"forwarded"`
	ForwardFailed int64 `json:"forwardFailed"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	load := s.active
	s.mu.Unlock()
	out := fleetJSON{
		Load:          load,
		DegradeAt:     s.shed.DegradeAt,
		ShedAt:        s.shed.ShedAt,
		Forwarded:     s.reg.Counter("fleet/forwarded").Value(),
		ForwardFailed: s.reg.Counter("fleet/forward_failed").Value(),
	}
	if s.fleet != nil {
		out.Enabled = true
		out.Self = s.fleet.Self()
		out.Peers = s.fleet.Peers()
	}
	writeJSON(w, http.StatusOK, out)
}

// jobView renders a job envelope stamped with this replica's fleet
// address, so a client that reached the job through a forward (or a
// load balancer) knows which replica to ask.
func (s *Server) jobView(j *Job) jobJSON {
	jj := j.json()
	if s.fleet != nil {
		jj.Server = s.fleet.Self()
	}
	return jj
}
