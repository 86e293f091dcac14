package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparkxd"
	"sparkxd/internal/store"
)

// tinyConfig is a laptop-fast configuration shared by the job tests.
func tinyConfig() sparkxd.ConfigSpec {
	return sparkxd.ConfigSpec{
		Neurons:      40,
		TrainSamples: 50,
		TestSamples:  25,
		BaseEpochs:   1,
		BERSchedule:  []float64{1e-5, 1e-3},
	}
}

// testLogger returns a text logger that writes each record through
// t.Log, so a failing test prints the component's records.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Workers: 2, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// waitDone polls a job to a terminal state.
func waitDone(t *testing.T, srv *Server, id string) sparkxd.JobStatus {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		status, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if status.State.Terminal() {
			return status
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return sparkxd.JobStatus{}
}

// The full lifecycle of a pipeline job: queued -> running -> done with
// one stored artifact per stage, plus idempotent resubmission.
func TestPipelineJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv, _ := newTestServer(t)
	spec := sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Config: tinyConfig()}

	status, created, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first submission must create the job")
	}
	again, created2, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if created2 {
		t.Error("resubmission must not create a second job")
	}
	if again.ID != status.ID {
		t.Errorf("resubmission returned a different ID: %s vs %s", again.ID, status.ID)
	}

	final := waitDone(t, srv, status.ID)
	if final.State != sparkxd.JobDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	for _, role := range []string{"baseline", "improved", "tolerance", "placement", "evaluation", "energy"} {
		key, ok := final.Artifacts[role]
		if !ok {
			t.Errorf("missing %q artifact (have %v)", role, final.Artifacts)
			continue
		}
		if _, err := srv.Store().Stat(key); err != nil {
			t.Errorf("artifact %s not in store: %v", key, err)
		}
	}
	// The stored improved model decodes into a usable checkpoint.
	if key, ok := final.Artifacts["improved"]; ok {
		m, err := sparkxd.GetTrainedModel(srv.Store(), key)
		if err != nil {
			t.Fatalf("GetTrainedModel: %v", err)
		}
		if m.Neurons != 40 || m.WeightCount() == 0 {
			t.Errorf("decoded model looks wrong: neurons=%d weights=%d", m.Neurons, m.WeightCount())
		}
	}
}

// A stage-limited pipeline job runs only its prefix: stage "train"
// stores a baseline model and nothing downstream.
func TestStageLimitedPipelineJob(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv, _ := newTestServer(t)
	status, _, err := srv.Submit(sparkxd.JobSpec{
		Kind: sparkxd.JobPipeline, Stage: "train", Config: tinyConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, status.ID)
	if final.State != sparkxd.JobDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	if _, ok := final.Artifacts["baseline"]; !ok {
		t.Errorf("train-stage job must store a baseline model (have %v)", final.Artifacts)
	}
	for _, role := range []string{"improved", "tolerance", "placement", "evaluation", "energy"} {
		if _, ok := final.Artifacts[role]; ok {
			t.Errorf("train-stage job must not produce %q", role)
		}
	}
}

// A spec the job would fail on before doing any work is refused at
// submission: an out-of-range or repeated sweep axis, or a configuration
// New refuses, answers 400, and a body over maxSubmitBytes answers 413.
// Neither creates a job or writes a job record, and both count as
// invalid submissions.
func TestSubmitRefusesInvalidSpecs(t *testing.T) {
	st := sparkxd.MemoryStore()
	srv, err := New(Config{Dispatch: DispatchFleet, Store: st, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	cases := []struct {
		body string
		code int
	}{
		{`{"kind":"sweep","sweep":{"bers":[0.7]}}`, http.StatusBadRequest},
		{`{"kind":"sweep","sweep":{"voltages":[-1]}}`, http.StatusBadRequest},
		{`{"kind":"sweep","sweep":{"encoders":["ttfs","TTFS"]}}`, http.StatusBadRequest},
		{`{"kind":"pipeline","config":{"neurons":-5}}`, http.StatusBadRequest},
		{`{"kind":"pipeline","config":{"ber_schedule":[1e-3,1e-5]}}`, http.StatusBadRequest},
		{`{"kind":"pipeline","config":{"dataset":"` + strings.Repeat("m", maxSubmitBytes) + `"}}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("POST %.60s: status %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Errorf("refused submissions created jobs: %+v", jobs)
	}
	if infos, err := st.List(sparkxd.KindJobRecord); err != nil || len(infos) != 0 {
		t.Errorf("refused submissions wrote job records: %v, %v", infos, err)
	}
	want := fmt.Sprintf(`sparkxd_jobs_submitted_total{result="invalid"} %d`, len(cases))
	if out := scrape(t, ts); !strings.Contains(out, want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

func TestHTTPValidation(t *testing.T) {
	_, ts := newTestServer(t)

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Unknown kind -> 400 with a JSON error body.
	resp := post(`{"kind":"compile"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid kind: status %d, want 400", resp.StatusCode)
	}
	var ae struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Error == "" {
		t.Errorf("error body missing: %v %q", err, ae.Error)
	}
	resp.Body.Close()

	// Unknown fields are rejected rather than silently dropped — a typo'd
	// axis must not run a different grid than the client intended.
	resp = post(`{"kind":"sweep","voltagez":[1.1]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown job -> 404.
	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Artifact endpoint: bad key -> 400, missing key -> 404.
	resp, err := http.Get(ts.URL + "/v1/artifacts/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad artifact key: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	missing := sparkxd.KindSweepReport + "/" + strings.Repeat("ab", 32)
	resp, err = http.Get(ts.URL + "/v1/artifacts/" + missing)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing artifact: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Health probe.
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// The artifact endpoint serves the canonical envelope: the bytes a
// client fetches hash back to the key it asked for.
func TestArtifactEndpointIntegrity(t *testing.T) {
	srv, ts := newTestServer(t)
	rep := &sparkxd.ToleranceReport{BaselineAcc: 0.9, AccBound: 0.01, BERth: 1e-5}
	key, err := sparkxd.PutArtifact(srv.Store(), rep)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + string(key))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	env, err := store.DecodeEnvelope(store.Key(key), bytes.TrimRight(buf.Bytes(), "\n"))
	if err != nil {
		t.Fatalf("served envelope fails integrity check: %v", err)
	}
	var got sparkxd.ToleranceReport
	if err := env.Decode(sparkxd.KindToleranceReport, &got); err != nil {
		t.Fatal(err)
	}
	if got.BERth != 1e-5 || got.BaselineAcc != 0.9 {
		t.Errorf("decoded %+v", got)
	}
}

// SSE: a finished job's event stream replays lifecycle (and stage)
// events and then terminates.
func TestEventStream(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	srv, ts := newTestServer(t)
	status, _, err := srv.Submit(sparkxd.JobSpec{
		Kind: sparkxd.JobPipeline, Stage: "train", Config: tinyConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv, status.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	var phases []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev sparkxd.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event %q: %v", data, err)
		}
		if ev.Stage == "job" {
			phases = append(phases, ev.Phase)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"queued", "running", "done"}
	if len(phases) != len(want) {
		t.Fatalf("job lifecycle phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("job lifecycle phases = %v, want %v", phases, want)
		}
	}

	// Resume: a reconnect with Last-Event-ID skips the already-seen
	// prefix (event 0 is the "queued" lifecycle marker).
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+status.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "0")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var resumed []string
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		data, ok := strings.CutPrefix(sc2.Text(), "data: ")
		if !ok {
			continue
		}
		var ev sparkxd.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event %q: %v", data, err)
		}
		if ev.Stage == "job" {
			resumed = append(resumed, ev.Phase)
		}
	}
	if len(resumed) == 0 || resumed[0] == "queued" {
		t.Errorf("Last-Event-ID resume replayed the seen prefix: %v", resumed)
	}
}
