package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func submitBatch(t *testing.T, ts *httptest.Server, path, body string) (batchJSON, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var env batchJSON
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode batch envelope: %v", err)
		}
	}
	return env, resp.StatusCode
}

func getBatch(t *testing.T, ts *httptest.Server, id string) (batchJSON, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/batch/" + id)
	if err != nil {
		t.Fatalf("GET batch: %v", err)
	}
	defer resp.Body.Close()
	var env batchJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode batch envelope: %v", err)
		}
	}
	return env, resp.StatusCode
}

// waitBatch holds one GET on the batch until every member is
// terminal (60s budget).
func waitBatch(t *testing.T, ts *httptest.Server, id string) batchJSON {
	t.Helper()
	env, code := getBatch(t, ts, id+"?wait=60s")
	if code != http.StatusOK || !env.Done {
		t.Fatalf("batch %s did not finish (status %d)", id, code)
	}
	return env
}

func TestBatchHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	env, code := submitBatch(t, ts, "/v1/batch", `{"workload":"mix","graphs":[
		{"name":"a","example":"wan","options":{"workers":1}},
		{"name":"b","example":"lan","options":{"workers":1}},
		{"example":"mcm","options":{"workers":1}}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch status = %d, want 202", code)
	}
	if env.ID == "" || env.Links.Self != "/v1/batch/"+env.ID {
		t.Fatalf("bad batch envelope: %+v", env)
	}
	if len(env.Members) != 3 {
		t.Fatalf("envelope has %d members, want 3", len(env.Members))
	}
	if env.Members[0].Name != "a" || env.Members[1].Name != "b" || env.Members[2].Name != "g-2" {
		t.Errorf("member names = %q %q %q, want a b g-2 (index default)",
			env.Members[0].Name, env.Members[1].Name, env.Members[2].Name)
	}
	for i, m := range env.Members {
		if m.Tier != TierAccept || m.Job == nil || m.Error != "" {
			t.Errorf("member %d = %+v, want accepted with a job", i, m)
		}
	}

	fin := waitBatch(t, ts, env.ID)
	for i, m := range fin.Members {
		if m.Job == nil || m.Job.State != StateDone || m.Job.Result == nil {
			t.Fatalf("member %d = %+v, want done with result", i, m.Job)
		}
		if m.Job.Result.Cost <= 0 {
			t.Errorf("member %d cost = %v, want > 0", i, m.Job.Result.Cost)
		}
	}
	// Members are ordinary jobs: reachable through /v1/jobs too.
	j := waitJob(t, ts, fin.Members[0].Job.ID)
	if j.Workload != "wan" {
		t.Errorf("member 0 workload = %q, want wan", j.Workload)
	}
}

func TestBatchBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"empty graphs":  `{"graphs":[]}`,
		"no graphs key": `{}`,
		"garbage":       `{nope`,
		"unknown field": `{"graphs":[],"surprise":1}`,
	} {
		if _, code := submitBatch(t, ts, "/v1/batch", body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	// All-invalid members: rejected whole, nothing enters the table.
	_, code := submitBatch(t, ts, "/v1/batch", `{"graphs":[{"example":"nope"},{"example":"also-nope"}]}`)
	if code != http.StatusBadRequest {
		t.Errorf("all-invalid batch status = %d, want 400", code)
	}
	if got := srv.Registry().Snapshot().CounterMap()["serve/batch/rejected"]; got != 5 {
		t.Errorf("serve/batch/rejected = %d, want 5", got)
	}
	if got := srv.Registry().Snapshot().CounterMap()["serve/jobs_submitted"]; got != 0 {
		t.Errorf("serve/jobs_submitted = %d, want 0 after rejects", got)
	}
}

// TestBatchPartialInvalid: one undecodable graph among valid ones is
// a per-member error in a 202 envelope, not a batch reject.
func TestBatchPartialInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	env, code := submitBatch(t, ts, "/v1/batch", `{"graphs":[
		{"name":"good","example":"wan","options":{"workers":1}},
		{"name":"bad","example":"mystery"},
		{"name":"alsogood","example":"noc","options":{"workers":1}}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch status = %d, want 202 (partial acceptance)", code)
	}
	bad := env.Members[1]
	if bad.Error == "" || bad.Job != nil || bad.Tier != "" {
		t.Fatalf("invalid member = %+v, want error only", bad)
	}
	if !strings.Contains(bad.Error, "mystery") {
		t.Errorf("invalid member error %q does not name the bad example", bad.Error)
	}
	fin := waitBatch(t, ts, env.ID)
	for _, i := range []int{0, 2} {
		if m := fin.Members[i]; m.Job == nil || m.Job.State != StateDone {
			t.Errorf("valid member %d = %+v, want done", i, m.Job)
		}
	}
}

// TestBatchTieredAdmission: members pass the same watermark gate as
// single submissions, one at a time under one lock hold — so a batch
// wider than the degrade band is admitted, degraded, then shed
// member-by-member, deterministically.
func TestBatchTieredAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		Shed:          ShedConfig{DegradeAt: 2, ShedAt: 3},
	})
	env, code := submitBatch(t, ts, "/v1/batch", `{"graphs":[
		{"example":"wan","options":{"workers":1}},
		{"example":"wan","options":{"workers":1}},
		{"example":"wan","options":{"workers":1}},
		{"example":"wan","options":{"workers":1}},
		{"example":"wan","options":{"workers":1}},
		{"example":"wan","options":{"workers":1}}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch status = %d, want 202", code)
	}
	want := []string{TierAccept, TierAccept, TierDegrade, TierShed, TierShed, TierShed}
	for i, m := range env.Members {
		if m.Tier != want[i] {
			t.Errorf("member %d tier = %q, want %q", i, m.Tier, want[i])
		}
		if (m.Job != nil) != (want[i] != TierShed) {
			t.Errorf("member %d job presence inconsistent with tier %q", i, want[i])
		}
	}
	snap := srv.Registry().Snapshot().CounterMap()
	if snap["serve/shed/"+TierShed] != 3 || snap["serve/shed/"+TierDegrade] != 1 || snap["serve/shed/"+TierAccept] != 2 {
		t.Errorf("tier counters = accept %d degrade %d shed %d, want 2/1/3",
			snap["serve/shed/"+TierAccept], snap["serve/shed/"+TierDegrade], snap["serve/shed/"+TierShed])
	}
	fin := waitBatch(t, ts, env.ID)
	if m := fin.Members[2]; m.Job == nil || m.Job.State != StateDone || m.Job.Admission != TierDegrade {
		t.Errorf("degraded member = %+v, want done with degraded admission", m.Job)
	}
}

// TestBatchWiderThanJobTable: a batch larger than MaxJobs sheds the
// overflow members (nothing finished to evict) instead of rejecting
// the whole request.
func TestBatchWiderThanJobTable(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxJobs:       2,
		Shed:          ShedConfig{DegradeAt: 98, ShedAt: 99},
	})
	env, code := submitBatch(t, ts, "/v1/batch", `{"graphs":[
		{"example":"wan","options":{"workers":1}},
		{"example":"wan","options":{"workers":1}},
		{"example":"wan","options":{"workers":1}},
		{"example":"wan","options":{"workers":1}}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch status = %d, want 202 (partial admission)", code)
	}
	var jobs, shed int
	for _, m := range env.Members {
		switch {
		case m.Job != nil:
			jobs++
		case m.Tier == TierShed:
			shed++
		}
	}
	if jobs != 2 || shed != 2 {
		t.Fatalf("admitted %d / shed %d, want 2 / 2 with MaxJobs=2", jobs, shed)
	}
	fin := waitBatch(t, ts, env.ID)
	if !fin.Done {
		t.Error("batch must report done once admitted members finish")
	}
}

// TestBatchAllShed: a server already at the shed watermark refuses
// the whole batch with 429 + Retry-After and records no batch.
func TestBatchAllShed(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	var parked atomic.Int32
	setTestJobStartHook(func(j *Job) {
		parked.Add(1)
		<-release
	})
	defer setTestJobStartHook(nil)

	_, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		Shed:          ShedConfig{DegradeAt: 1, ShedAt: 2},
	})
	for i := 0; i < 2; i++ {
		if _, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`); code != http.StatusAccepted {
			t.Fatalf("filler job %d status = %d", i, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"graphs":[{"example":"wan"},{"example":"lan"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 batch response must carry Retry-After")
	}
	if _, code := getBatch(t, ts, "b-000001"); code != http.StatusNotFound {
		t.Errorf("fully-shed batch must not be recorded, GET = %d", code)
	}
	once.Do(func() { close(release) })
}

func TestBatchNDJSONStream(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	resp, err := http.Post(ts.URL+"/v1/batch?stream=ndjson", "application/json",
		strings.NewReader(`{"graphs":[
			{"name":"x","example":"wan","options":{"workers":1}},
			{"name":"y","example":"noc","options":{"workers":1}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream status = %d, want 202", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		t.Fatal("stream ended before the envelope line")
	}
	var env batchJSON
	if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
		t.Fatalf("envelope line: %v", err)
	}
	if len(env.Members) != 2 || env.Done {
		t.Fatalf("envelope = %+v, want 2 admitted members not yet done", env)
	}

	got := map[string]string{}
	for sc.Scan() {
		var line struct {
			Name string  `json:"name"`
			Job  jobJSON `json:"job"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("result line %q: %v", sc.Text(), err)
		}
		got[line.Name] = line.Job.State
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(got) != 2 || got["x"] != StateDone || got["y"] != StateDone {
		t.Fatalf("streamed results = %v, want x and y done", got)
	}
}

// TestBatchCrashRecovery is the batch durability property: crash with
// one member finished and one mid-run, restart, and the batch comes
// back bound to a restored finished job (byte-identical result, SSE
// replay intact) and a re-queued restarted member — only the
// unfinished member re-runs.
func TestBatchCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	// Both members run concurrently (MaxConcurrent 2): the wan member
	// finishes unhindered, the "parkme"-labelled member parks mid-run
	// until the crash. The parked member is a cheap lan solve — the
	// hook, not the workload's cost, is what keeps it mid-run, and the
	// post-restart re-run must fit the waitJob budget even under -race.
	started := make(chan string, 8)
	setTestJobStartHook(func(j *Job) {
		if j.Workload == "parkme" {
			started <- j.ID
			<-release
		}
	})
	defer setTestJobStartHook(nil)

	srv1, err := New(Config{MaxConcurrent: 2, DataDir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatalf("first daemon: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	env, code := submitBatch(t, ts1, "/v1/batch", `{"workload":"crashmix","graphs":[
		{"name":"fast","example":"wan","options":{"workers":1}},
		{"name":"slow","example":"lan","workload":"parkme","options":{"workers":1}}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch status = %d", code)
	}
	fastID, slowID := env.Members[0].Job.ID, env.Members[1].Job.ID
	fin := waitJob(t, ts1, fastID)
	if fin.State != StateDone {
		t.Fatalf("fast member state = %q, want done before crash", fin.State)
	}
	result1 := rawResult(t, ts1.URL, fastID)
	if id := <-started; id != slowID {
		t.Fatalf("running member is %s, want %s", id, slowID)
	}

	srv1.store.Crash()
	releaseAll()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("drain first daemon: %v", err)
	}
	ts1.Close()

	setTestJobStartHook(nil)
	_, ts2 := newTestServer(t, Config{MaxConcurrent: 2, DataDir: dir})

	renv, code := getBatch(t, ts2, env.ID)
	if code != http.StatusOK {
		t.Fatalf("restored batch GET = %d, want 200", code)
	}
	if !renv.Restored || renv.Workload != "crashmix" || len(renv.Members) != 2 {
		t.Fatalf("restored envelope = %+v, want restored crashmix with 2 members", renv)
	}

	// Finished member: restored, not re-run, byte-identical result.
	rfast := renv.Members[0]
	if rfast.Job == nil || rfast.Job.State != StateDone || rfast.Job.Restarted {
		t.Fatalf("restored fast member = %+v, want done and not restarted", rfast.Job)
	}
	if got := rawResult(t, ts2.URL, fastID); string(got) != string(result1) {
		t.Errorf("restored member result differs:\n  before: %s\n  after:  %s", result1, got)
	}

	// Interrupted member: re-queued, marked restarted, re-runs.
	rslow := waitJob(t, ts2, slowID)
	if rslow.State != StateDone || !rslow.Restarted {
		t.Fatalf("re-queued member = state %q restarted %v, want done and restarted", rslow.State, rslow.Restarted)
	}
	fin2 := waitBatch(t, ts2, env.ID)
	if !fin2.Done {
		t.Error("restored batch must reach done")
	}

	// SSE replay of the restored batch member: synthetic but
	// contiguous and cleanly terminated.
	checkRestoredStream(t, ts2, fastID)
}
