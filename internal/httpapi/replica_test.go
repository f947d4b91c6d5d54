package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dynhl "repro"
	"repro/internal/testutil"
)

// fakeReplica drives the replica-mode server without a live leader: the
// store is swappable so tests can model pre- and post-bootstrap states.
type fakeReplica struct {
	store *dynhl.Store
	stats dynhl.ReplicationStats
}

func (f *fakeReplica) Store() *dynhl.Store                      { return f.store }
func (f *fakeReplica) ReplicationStats() dynhl.ReplicationStats { return f.stats }
func (f *fakeReplica) Leader() string                           { return f.stats.Leader }

func replicaFixture(t *testing.T, bootstrapped bool) (*fakeReplica, *httptest.Server) {
	t.Helper()
	f := &fakeReplica{stats: dynhl.ReplicationStats{
		Role: "follower", Leader: "leader.example:7601", Connected: true,
	}}
	if bootstrapped {
		idx, err := dynhl.Build(testutil.RandomConnectedGraph(40, 80, 11), dynhl.Options{Landmarks: 4})
		if err != nil {
			t.Fatal(err)
		}
		f.store = dynhl.NewStore(idx)
		f.stats.Ready = true
	}
	srv := NewReplica(f)
	srv.epochWait = 50 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return f, ts
}

func TestReplicaRejectsWritesWithLeaderHint(t *testing.T) {
	_, ts := replicaFixture(t, true)
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/edges", `{"u":0,"v":30}`},
		{"POST", "/updates", `{"ops":[{"op":"insert_edge","u":0,"v":30}]}`},
		{"POST", "/vertices", `{"neighbors":[1,2]}`},
		{"DELETE", "/edges?u=0&v=1", ""},
		{"DELETE", "/vertices?v=3", ""},
		{"PUT", "/labels", "x"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s on a replica: status %d, want 503", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get(leaderHeader); got != "leader.example:7601" {
			t.Fatalf("%s %s: %s header %q", tc.method, tc.path, leaderHeader, got)
		}
	}
}

func TestReplicaServesReads(t *testing.T) {
	f, ts := replicaFixture(t, true)
	var dr distanceResponse
	getJSON(t, ts.URL+"/distance?u=0&v=1", http.StatusOK, &dr)
	if dr.Distance == nil {
		t.Fatal("connected graph: distance must not be null")
	}
	var br distancesResponse
	postJSON(t, ts.URL+"/distances", `{"pairs":[{"u":0,"v":1},{"u":2,"v":3}]}`, http.StatusOK, &br)
	if len(br.Distances) != 2 {
		t.Fatalf("batch answered %d pairs", len(br.Distances))
	}
	var st dynhl.Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Vertices != f.store.NumVertices() {
		t.Fatalf("stats vertices %d, want %d", st.Vertices, f.store.NumVertices())
	}
}

func TestReplicaBootstrapping(t *testing.T) {
	_, ts := replicaFixture(t, false)
	getJSON(t, ts.URL+"/distance?u=0&v=1", http.StatusServiceUnavailable, nil)
	postJSON(t, ts.URL+"/distances", `{"pairs":[{"u":0,"v":1}]}`, http.StatusServiceUnavailable, nil)

	var hr healthResponse
	getJSON(t, ts.URL+"/healthz", http.StatusServiceUnavailable, &hr)
	if hr.Status != "bootstrapping" || hr.Role != "follower" || hr.Ready {
		t.Fatalf("healthz during bootstrap: %+v", hr)
	}
	// /stats still answers, with the replication state alone.
	var st dynhl.Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Replication == nil || st.Replication.Role != "follower" {
		t.Fatalf("bootstrapping /stats replication %+v", st.Replication)
	}
}

func TestReplicaHealthzReady(t *testing.T) {
	f, ts := replicaFixture(t, true)
	f.stats.LagEpochs = 2
	f.stats.LagBytes = 512
	var hr healthResponse
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &hr)
	if hr.Status != "ok" || hr.Role != "follower" || !hr.Ready {
		t.Fatalf("healthz: %+v", hr)
	}
	if hr.LagEpochs != 2 || hr.LagBytes != 512 || hr.Leader == "" {
		t.Fatalf("healthz lag fields: %+v", hr)
	}
}

func TestHealthzStandalone(t *testing.T) {
	ts := newTestServer(t)
	var hr healthResponse
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &hr)
	if hr.Status != "ok" || hr.Role != "standalone" || !hr.Ready {
		t.Fatalf("healthz: %+v", hr)
	}
}

func TestReadYourWritesEpochWait(t *testing.T) {
	g := testutil.RandomConnectedGraph(40, 80, 12)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	store := dynhl.NewStore(idx)
	srv := New(store)
	srv.epochWait = 100 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func(epoch string) *http.Response {
		req, err := http.NewRequest("GET", ts.URL+"/distance?u=0&v=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != "" {
			req.Header.Set(epochHeader, epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Already-published epoch: no wait.
	if resp := get("0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait for current epoch: status %d", resp.StatusCode)
	}
	// Future epoch that never lands: bounded 503.
	start := time.Now()
	if resp := get("5"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wait for unpublished epoch: status %d, want 503", resp.StatusCode)
	} else if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timeout not bounded: waited %v", waited)
	}
	// Malformed header.
	if resp := get("not-a-number"); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("malformed epoch header accepted")
	}

	// A waiter parked on the next epoch is released by the publish.
	done := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest("GET", ts.URL+"/distance?u=0&v=1", nil)
		req.Header.Set(epochHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond)
	var fu, fv uint32
	found := false
	for u := uint32(0); u < 40 && !found; u++ {
		for v := u + 1; v < 40 && !found; v++ {
			if !g.HasEdge(u, v) {
				fu, fv, found = u, v, true
			}
		}
	}
	if !found {
		t.Fatal("graph is complete")
	}
	if _, err := store.Apply([]dynhl.Op{dynhl.InsertEdgeOp(fu, fv, 0)}); err != nil {
		t.Fatal(err)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("read-your-writes after publish: status %d", code)
	}
}
