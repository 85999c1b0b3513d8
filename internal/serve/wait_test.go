package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// parkJobs makes every job that starts block in the start hook until
// the returned release runs. Release is idempotent and also a cleanup;
// call parkJobs after newTestServer so that cleanup runs before the
// server's drain, which would otherwise wait on the parked job.
func parkJobs(t *testing.T) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	setTestJobStartHook(func(*Job) { <-gate })
	t.Cleanup(func() {
		release()
		setTestJobStartHook(nil)
	})
	return release
}

// TestWaitRejectsBadDurations: a malformed or negative ?wait= is a
// 400 on both the job and the batch GET.
func TestWaitRejectsBadDurations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	j, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	b, code := submitBatch(t, ts, "/v1/batch", `{"graphs":[{"example":"wan","options":{"workers":1}}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch status = %d", code)
	}
	for _, q := range []string{"?wait=abc", "?wait=-1s", "?wait=10"} {
		if _, code := getJobStatus(t, ts.URL, j.ID+q); code != http.StatusBadRequest {
			t.Errorf("GET job%s = %d, want 400", q, code)
		}
		if _, code := getBatch(t, ts, b.ID+q); code != http.StatusBadRequest {
			t.Errorf("GET batch%s = %d, want 400", q, code)
		}
	}
	waitJob(t, ts, j.ID)
	waitBatch(t, ts, b.ID)
}

// TestWaitHoldsUntilDone: an absent or zero wait answers at once; a
// held GET on a parked job comes back non-terminal when the hold
// lapses or the client gives up; once the job is released, one held
// GET returns it done.
func TestWaitHoldsUntilDone(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	release := parkJobs(t)
	j, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}

	for _, q := range []string{"", "?wait=0", "?wait=0s"} {
		start := time.Now()
		got, code := getJobStatus(t, ts.URL, j.ID+q)
		if code != http.StatusOK || got.State == StateDone || got.State == StateFailed {
			t.Fatalf("GET job%s = %+v (status %d), want a live job", q, got, code)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("GET job%s took %v, want an immediate answer", q, el)
		}
	}

	const hold = 100 * time.Millisecond
	start := time.Now()
	got, code := getJobStatus(t, ts.URL, j.ID+"?wait="+hold.String())
	if el := time.Since(start); el < hold {
		t.Errorf("held GET returned after %v, before its %v hold", el, hold)
	}
	if code != http.StatusOK || got.State == StateDone || got.State == StateFailed {
		t.Fatalf("held GET on a parked job = %+v (status %d), want a live job", got, code)
	}

	// The request context ends a hold too: a client that gives up is
	// not answered after the fact.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"?wait=30s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("held GET outlived its client's 50ms deadline (status %d)", resp.StatusCode)
	}

	release()
	if got := waitJob(t, ts, j.ID); got.State != StateDone {
		t.Fatalf("released job state = %q, want done", got.State)
	}
}

// TestWaitBatchHoldsUntilDone: a held batch GET stays open while a
// member is parked and returns done: true once every member finished.
func TestWaitBatchHoldsUntilDone(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	release := parkJobs(t)
	b, code := submitBatch(t, ts, "/v1/batch", `{"graphs":[
		{"name":"a","example":"wan","options":{"workers":1}},
		{"name":"b","example":"lan","options":{"workers":1}}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch status = %d", code)
	}
	env, code := getBatch(t, ts, b.ID+"?wait=50ms")
	if code != http.StatusOK || env.Done {
		t.Fatalf("held GET on a parked batch = %+v (status %d), want not done", env, code)
	}
	release()
	env, code = getBatch(t, ts, b.ID+"?wait=60s")
	if code != http.StatusOK || !env.Done {
		t.Fatalf("held batch GET = %+v (status %d), want done", env, code)
	}
	for _, m := range env.Members {
		if m.Job == nil || m.Job.State != StateDone {
			t.Errorf("member %s = %+v, want done", m.Name, m.Job)
		}
	}
}

// TestWaitRestoredFinishedJob: a job restored from the WAL as finished
// has its done channel closed, so a long hold answers at once.
func TestWaitRestoredFinishedJob(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{DataDir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	j, code := submit(t, ts1, `{"example":"wan","options":{"workers":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	waitJob(t, ts1, j.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv1.Drain(ctx)
	ts1.Close()

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	start := time.Now()
	got, code := getJobStatus(t, ts2.URL, j.ID+"?wait=30s")
	if code != http.StatusOK || got.State != StateDone {
		t.Fatalf("restored job = %+v (status %d), want done", got, code)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("held GET on a restored finished job took %v, want an immediate answer", el)
	}
}
