package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"filtermap/internal/cluster"
)

// clusterTestOptions enables coordinator+local-worker mode tuned for
// test latency.
func clusterTestOptions(workers int) Options {
	return Options{Cluster: &ClusterOptions{
		Role:         RoleBoth,
		LocalWorkers: workers,
		WorkerPoll:   2 * time.Millisecond,
	}}
}

// postBody posts to url and returns the raw response body.
func postBody(t *testing.T, url string) []byte {
	t.Helper()
	resp := doJSON(t, http.MethodPost, url, nil, nil)
	wantStatus(t, resp, http.StatusOK)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return b
}

// TestClusterDisabled checks the protocol surface without cluster mode:
// worker endpoints 409, the status doc reports disabled, and the
// replication log still serves (any fmserve can be a log source).
func TestClusterDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/lease", cluster.LeaseRequest{Worker: "w"}, nil)
	wantStatus(t, resp, http.StatusConflict)

	var status cluster.StatusDoc
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster", nil, &status)
	wantStatus(t, resp, http.StatusOK)
	if status.Enabled {
		t.Fatal("status.Enabled = true on a standalone server")
	}

	var logResp cluster.LogResponse
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/log", nil, &logResp)
	wantStatus(t, resp, http.StatusOK)
}

// TestClusterByteIdentity is the core determinism contract: every
// shardable kind served by a coordinator+workers cluster must be
// byte-identical to the standalone single-process answer.
func TestClusterByteIdentity(t *testing.T) {
	_, plain := newTestServer(t, Options{})
	_, clustered := newTestServer(t, clusterTestOptions(2))

	for _, kind := range []string{"identify", "mechanisms", "discover", "characterize"} {
		path := "/v1/" + kind + "?wait=1"
		want := postBody(t, plain.URL+path)
		got := postBody(t, clustered.URL+path)
		if string(got) != string(want) {
			t.Errorf("%s: clustered body differs from single-process\nclustered: %.300s\nsingle:    %.300s", kind, got, want)
		}
	}
}

// TestClusterStatusMetricsAndLog exercises the observability surface
// after real clustered runs: /v1/cluster counters, the /metrics cluster
// section, and the replication-log tail fed by OnComplete appends.
func TestClusterStatusMetricsAndLog(t *testing.T) {
	_, ts := newTestServer(t, clusterTestOptions(2))

	postBody(t, ts.URL+"/v1/mechanisms?wait=1")

	var status cluster.StatusDoc
	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/cluster", nil, &status)
	wantStatus(t, resp, http.StatusOK)
	if !status.Enabled || status.Role != RoleBoth {
		t.Fatalf("status = %+v, want enabled role=both", status)
	}
	if len(status.Workers) == 0 {
		t.Fatal("status lists no workers after a clustered run")
	}
	if status.Counters.JobsDone == 0 || status.Counters.ShardsDone == 0 || status.Counters.LeasesGranted == 0 {
		t.Fatalf("counters untouched after a clustered run: %+v", status.Counters)
	}

	var metrics MetricsDoc
	resp = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics)
	wantStatus(t, resp, http.StatusOK)
	if metrics.Cluster == nil {
		t.Fatal("/metrics omits the cluster section in cluster mode")
	}
	if metrics.Cluster.Role != RoleBoth || metrics.Cluster.Counters.ShardsDone == 0 {
		t.Fatalf("/metrics cluster section = %+v", metrics.Cluster)
	}
	if metrics.Cluster.AppendErrors != 0 {
		t.Fatalf("AppendErrors = %d after clean runs, want 0", metrics.Cluster.AppendErrors)
	}

	// The completed run appended to the store — the replication log.
	var logResp cluster.LogResponse
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/log", nil, &logResp)
	wantStatus(t, resp, http.StatusOK)
	if len(logResp.Records) == 0 || logResp.LastSeq == 0 {
		t.Fatalf("replication log empty after a clustered run: %+v", logResp)
	}
	if logResp.Records[0].Meta.Note != "cluster" {
		t.Fatalf("log record note = %q, want cluster", logResp.Records[0].Meta.Note)
	}

	// Tailing from the end returns nothing new.
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/log?after="+
		strconv.FormatUint(logResp.LastSeq, 10), nil, &logResp)
	wantStatus(t, resp, http.StatusOK)
	if len(logResp.Records) != 0 {
		t.Fatalf("tail past LastSeq returned %d records", len(logResp.Records))
	}
}

// TestClusterTokenAuth locks down the worker/replica protocol: with a
// cluster token configured, every /v1/cluster/* protocol endpoint must
// reject requests without the token, and accept them with it — so no
// anonymous client can lease shards, forge fragments into the merge and
// replication log, or fail jobs with repeated error posts.
func TestClusterTokenAuth(t *testing.T) {
	opts := clusterTestOptions(1)
	opts.ClusterToken = "s3cret"
	_, ts := newTestServer(t, opts)

	protocol := []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/cluster/lease"},
		{http.MethodPost, "/v1/cluster/result"},
		{http.MethodPost, "/v1/cluster/heartbeat"},
		{http.MethodPost, "/v1/cluster/release"},
		{http.MethodGet, "/v1/cluster/log"},
	}
	for _, ep := range protocol {
		req, err := http.NewRequest(ep.method, ts.URL+ep.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", ep.method, ep.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s without token = %d, want 401", ep.method, ep.path, resp.StatusCode)
		}

		req, err = http.NewRequest(ep.method, ts.URL+ep.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(cluster.TokenHeader, "wrong")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", ep.method, ep.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s with wrong token = %d, want 401", ep.method, ep.path, resp.StatusCode)
		}
	}

	// The right token speaks the protocol normally.
	body, _ := json.Marshal(cluster.LeaseRequest{Worker: "authed"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/cluster/lease", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.TokenHeader, "s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("authed lease: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed lease = %d, want 200", resp.StatusCode)
	}

	// The in-process workers use the local transport, so the pipeline
	// still runs under a token-locked protocol.
	postBody(t, ts.URL+"/v1/mechanisms?wait=1")
}

// TestClusterLeaseValidation checks the protocol endpoints reject
// malformed requests.
func TestClusterLeaseValidation(t *testing.T) {
	_, ts := newTestServer(t, clusterTestOptions(1))

	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/lease", cluster.LeaseRequest{}, nil)
	wantStatus(t, resp, http.StatusBadRequest)

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/result",
		cluster.ResultRequest{Worker: "w"}, nil)
	wantStatus(t, resp, http.StatusBadRequest)
}

// TestClusterLeaseWakesHTTPWorker checks wait-for-work over the wire: a
// remote worker whose lease call is parked picks up a job submitted
// meanwhile at once, not after its 5s Poll.
func TestClusterLeaseWakesHTTPWorker(t *testing.T) {
	srv, ts := newTestServer(t, Options{Cluster: &ClusterOptions{Role: RoleCoordinator, LeaseTTL: 30 * time.Second}})
	coord := srv.clusterRt.coord

	w := cluster.NewWorker("remote", &cluster.HTTPTransport{BaseURL: ts.URL})
	w.Poll = 5 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		w.Run(ctx) //nolint:errcheck // exits on cancel
	}()
	t.Cleanup(func() {
		cancel()
		<-runDone
	})

	// The worker's first lease admits it to the ring and parks.
	waitFor(t, func() bool { return coord.Counters().WorkersAdmitted == 1 })

	submitted := time.Now()
	done := make(chan []byte, 1)
	go func() { done <- postBody(t, ts.URL+"/v1/mechanisms?wait=1") }()
	waitFor(t, func() bool { return coord.Counters().LeasesGranted > 0 })
	if d := time.Since(submitted); d > time.Second {
		t.Fatalf("parked worker took %v to pick up the job, want <1s", d)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("clustered job never finished")
	}
}

// TestClusterLeaseUnauthenticatedNotParked checks the token gate runs
// before any parking: a lease without the token is refused at once.
func TestClusterLeaseUnauthenticatedNotParked(t *testing.T) {
	_, ts := newTestServer(t, Options{
		ClusterToken: "s3cret",
		Cluster:      &ClusterOptions{Role: RoleCoordinator, LeaseTTL: 30 * time.Second},
	})
	start := time.Now()
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/lease", cluster.LeaseRequest{Worker: "w", WaitMS: 10_000}, nil)
	resp.Body.Close()
	wantStatus(t, resp, http.StatusUnauthorized)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("unauthenticated lease answered after %v, want at once", d)
	}
}

// TestClusterShutdownBoundedByLeaseClamp checks a parked remote lease
// cannot hold shutdown past LeaseTTL, however long the worker asked to
// wait.
func TestClusterShutdownBoundedByLeaseClamp(t *testing.T) {
	srv, err := New(Options{Cluster: &ClusterOptions{Role: RoleCoordinator, LeaseTTL: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	coord := srv.clusterRt.coord

	w := cluster.NewWorker("remote", &cluster.HTTPTransport{BaseURL: ts.URL})
	w.Poll = time.Minute
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		w.Run(ctx) //nolint:errcheck // exits on cancel
	}()
	waitFor(t, func() bool { return coord.Counters().WorkersAdmitted == 1 })

	start := time.Now()
	ts.Close() // waits for the parked lease handler
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown took %v with a parked lease, want about the 200ms clamp", d)
	}
	cancel()
	<-runDone
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
