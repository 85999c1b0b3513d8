package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSleeper records every delay the client sleeps, so tests assert
// the exact backoff schedule without waiting wall-clock time.
type fakeSleeper struct {
	delays []time.Duration
}

func (f *fakeSleeper) sleep(d time.Duration) { f.delays = append(f.delays, d) }

// overloadedServer returns 429 (optionally with Retry-After) for the
// first fail submissions, then accepts.
func overloadedServer(fail int, retryAfter string) (*httptest.Server, *int32) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt32(&calls, 1)
		if int(n) <= fail {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"j-000001","workload":"wan","state":"queued"}`))
	}))
	return ts, &calls
}

// TestBackoffSchedule pins the exponential equal-jitter schedule with
// a deterministic jitter of 1.0: delay(attempt) = base << attempt,
// capped at MaxBackoff.
func TestBackoffSchedule(t *testing.T) {
	ts, calls := overloadedServer(3, "")
	defer ts.Close()
	sl := &fakeSleeper{}
	c := New(Config{
		BaseURL:     ts.URL,
		MaxAttempts: 5,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  150 * time.Millisecond,
		Jitter:      func() float64 { return 1.0 },
		Sleep:       sl.sleep,
	})
	job, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.ID != "j-000001" {
		t.Errorf("job id = %q", job.ID)
	}
	if got := atomic.LoadInt32(calls); got != 4 {
		t.Errorf("server saw %d calls, want 4 (3 rejections + 1 accept)", got)
	}
	// jitter=1.0 → delay = nominal/2 + nominal/2 = nominal.
	want := []time.Duration{100 * time.Millisecond, 150 * time.Millisecond, 150 * time.Millisecond}
	if len(sl.delays) != len(want) {
		t.Fatalf("slept %v, want %v", sl.delays, want)
	}
	for i := range want {
		if sl.delays[i] != want[i] {
			t.Errorf("delay %d = %v, want %v (200ms nominal must cap at 150ms)", i, sl.delays[i], want[i])
		}
	}
}

// TestJitterSpreadsDelays: jitter 0 halves the nominal delay — the
// equal-jitter lower bound.
func TestJitterSpreadsDelays(t *testing.T) {
	ts, _ := overloadedServer(1, "")
	defer ts.Close()
	sl := &fakeSleeper{}
	c := New(Config{
		BaseURL:     ts.URL,
		BaseBackoff: 100 * time.Millisecond,
		Jitter:      func() float64 { return 0 },
		Sleep:       sl.sleep,
	})
	if _, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`)); err != nil {
		t.Fatal(err)
	}
	if len(sl.delays) != 1 || sl.delays[0] != 50*time.Millisecond {
		t.Errorf("delays = %v, want exactly [50ms]", sl.delays)
	}
}

// TestRetryAfterHonored: an explicit server hint replaces the
// computed backoff verbatim.
func TestRetryAfterHonored(t *testing.T) {
	ts, _ := overloadedServer(2, "3")
	defer ts.Close()
	sl := &fakeSleeper{}
	c := New(Config{
		BaseURL: ts.URL,
		Jitter:  func() float64 { return 1.0 },
		Sleep:   sl.sleep,
	})
	if _, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`)); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{3 * time.Second, 3 * time.Second}
	if len(sl.delays) != len(want) {
		t.Fatalf("slept %v, want %v", sl.delays, want)
	}
	for i := range want {
		if sl.delays[i] != want[i] {
			t.Errorf("delay %d = %v, want the server's 3s hint", i, sl.delays[i])
		}
	}
}

// TestAttemptsCapped: a permanently overloaded server exhausts
// MaxAttempts and surfaces the last 429.
func TestAttemptsCapped(t *testing.T) {
	ts, calls := overloadedServer(1000, "")
	defer ts.Close()
	sl := &fakeSleeper{}
	c := New(Config{
		BaseURL:     ts.URL,
		MaxAttempts: 3,
		Jitter:      func() float64 { return 0 },
		Sleep:       sl.sleep,
	})
	_, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want a wrapped 429 StatusError", err)
	}
	if got := atomic.LoadInt32(calls); got != 3 {
		t.Errorf("server saw %d calls, want exactly MaxAttempts = 3", got)
	}
	if len(sl.delays) != 2 {
		t.Errorf("slept %d times, want 2 (no sleep after the final attempt)", len(sl.delays))
	}
}

// TestNonRetryableFailsFast: a 400 must not be retried.
func TestNonRetryableFailsFast(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	sl := &fakeSleeper{}
	c := New(Config{BaseURL: ts.URL, Sleep: sl.sleep})
	_, err := c.Submit(context.Background(), []byte(`{`))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if atomic.LoadInt32(&calls) != 1 || len(sl.delays) != 0 {
		t.Errorf("calls = %d sleeps = %d, want 1 and 0: client errors are not retryable",
			atomic.LoadInt32(&calls), len(sl.delays))
	}
}

// TestWaitHoldsOnServer drives Wait over a job that needs a few held
// GETs to finish: every GET must ask the server to hold for the
// caller's duration, and the client itself must never sleep.
func TestWaitHoldsOnServer(t *testing.T) {
	var gets int32
	var badWait atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("wait"); got != "10ms" {
			badWait.Store(got)
		}
		w.Header().Set("Content-Type", "application/json")
		if atomic.AddInt32(&gets, 1) < 3 {
			_, _ = w.Write([]byte(`{"id":"j-000001","state":"running"}`))
			return
		}
		_, _ = w.Write([]byte(`{"id":"j-000001","state":"done","result":{"cost":9.5}}`))
	}))
	defer ts.Close()
	sl := &fakeSleeper{}
	c := New(Config{BaseURL: ts.URL, Sleep: sl.sleep})
	job, err := c.Wait(context.Background(), "j-000001", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "done" || string(job.Result) != `{"cost":9.5}` {
		t.Errorf("job = %+v, want done with its result", job)
	}
	if n := atomic.LoadInt32(&gets); n != 3 {
		t.Errorf("Wait issued %d GETs, want 3", n)
	}
	if got := badWait.Load(); got != nil {
		t.Errorf("a Wait GET carried wait=%q, want wait=10ms on every GET", got)
	}
	if len(sl.delays) != 0 {
		t.Errorf("Wait slept %v, want no client-side sleeps", sl.delays)
	}
}

// TestDeadEndpointRotatesImmediately: with a fleet configured, a
// refused connection moves to the next replica without any sleep —
// backing off against a dead socket just wastes the deadline.
func TestDeadEndpointRotatesImmediately(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	ts, calls := overloadedServer(0, "")
	defer ts.Close()
	sl := &fakeSleeper{}
	c := New(Config{
		BaseURLs: []string{deadURL, ts.URL},
		Sleep:    sl.sleep,
	})
	job, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.ID != "j-000001" {
		t.Errorf("job id = %q", job.ID)
	}
	if len(sl.delays) != 0 {
		t.Errorf("slept %v, want no sleeps: rotation must be immediate", sl.delays)
	}
	if got := atomic.LoadInt32(calls); got != 1 {
		t.Errorf("live server saw %d calls, want 1", got)
	}
}

// TestShedRotatesToIdleReplica: a 429 from one replica retries on the
// next one immediately; its Retry-After binds only the sender.
func TestShedRotatesToIdleReplica(t *testing.T) {
	busy, busyCalls := overloadedServer(1000, "7")
	defer busy.Close()
	idle, idleCalls := overloadedServer(0, "")
	defer idle.Close()
	sl := &fakeSleeper{}
	c := New(Config{
		BaseURLs: []string{busy.URL, idle.URL},
		Sleep:    sl.sleep,
	})
	if _, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(sl.delays) != 0 {
		t.Errorf("slept %v, want none: the idle replica was one rotation away", sl.delays)
	}
	if b, i := atomic.LoadInt32(busyCalls), atomic.LoadInt32(idleCalls); b != 1 || i != 1 {
		t.Errorf("calls busy=%d idle=%d, want 1/1", b, i)
	}
}

// TestRingExhaustedSleepsLargestHint: when every replica sheds in one
// pass, the client sleeps once with the largest Retry-After seen, then
// sweeps the ring again.
func TestRingExhaustedSleepsLargestHint(t *testing.T) {
	a, aCalls := overloadedServer(1, "2")
	defer a.Close()
	b, bCalls := overloadedServer(1, "5")
	defer b.Close()
	sl := &fakeSleeper{}
	c := New(Config{
		BaseURLs:    []string{a.URL, b.URL},
		MaxAttempts: 4,
		Jitter:      func() float64 { return 1.0 },
		Sleep:       sl.sleep,
	})
	job, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.ID != "j-000001" {
		t.Errorf("job id = %q", job.ID)
	}
	if len(sl.delays) != 1 || sl.delays[0] != 5*time.Second {
		t.Errorf("delays = %v, want exactly [5s] (the largest hint on the exhausted ring)", sl.delays)
	}
	if ac, bc := atomic.LoadInt32(aCalls), atomic.LoadInt32(bCalls); ac != 2 || bc != 1 {
		t.Errorf("calls a=%d b=%d, want 2/1 (sleep, then resume the sweep at a)", ac, bc)
	}
}

// TestSubmitPinsOwnerReplica: a fleet daemon names the replica a
// forwarded job lives on; Wait must ask that owner, not whichever
// endpoint happened to take the submission.
func TestSubmitPinsOwnerReplica(t *testing.T) {
	var ownerGets int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&ownerGets, 1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"j-000007","state":"done","result":{"cost":1.5}}`))
	}))
	defer owner.Close()
	var frontGets int32
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			atomic.AddInt32(&frontGets, 1)
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"j-000007","state":"queued","server":"` + owner.URL + `"}`))
	}))
	defer front.Close()
	sl := &fakeSleeper{}
	c := New(Config{BaseURL: front.URL, Sleep: sl.sleep})
	job, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.Server != owner.URL {
		t.Fatalf("job server = %q, want %q", job.Server, owner.URL)
	}
	fin, err := c.Wait(context.Background(), job.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != "done" {
		t.Errorf("state = %q", fin.State)
	}
	if atomic.LoadInt32(&frontGets) != 0 || atomic.LoadInt32(&ownerGets) == 0 {
		t.Errorf("polls front=%d owner=%d, want all polls on the pinned owner",
			atomic.LoadInt32(&frontGets), atomic.LoadInt32(&ownerGets))
	}
}

// TestNormalizeBases pins dedup, trimming, and the empty fallback.
func TestNormalizeBases(t *testing.T) {
	got := normalizeBases("http://a:1/", []string{" http://b:2 ", "http://a:1", "", "http://b:2/"})
	want := []string{"http://a:1", "http://b:2"}
	if len(got) != len(want) {
		t.Fatalf("bases = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bases[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if empty := normalizeBases("", nil); len(empty) != 1 || empty[0] != "" {
		t.Errorf("empty config bases = %v, want the single empty base", empty)
	}
}

// TestRetryAfterParsing covers the header forms the daemon can emit
// and the garbage it never should.
func TestRetryAfterParsing(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"":        0,
		"1":       time.Second,
		"30":      30 * time.Second,
		"-5":      0,
		"soon":    0,
		"1.5":     0,
		"Wed, 21": 0,
	} {
		if got := parseRetryAfter(in); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}
