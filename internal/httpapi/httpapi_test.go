package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	dynhl "repro"
	"repro/internal/testutil"
	"repro/internal/wal"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	g := testutil.RandomConnectedGraph(60, 110, 4)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func postJSON(t *testing.T, url, body string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistanceEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var resp distanceResponse
	getJSON(t, ts.URL+"/distance?u=0&v=1", http.StatusOK, &resp)
	if resp.Distance == nil {
		t.Fatal("connected graph: distance must not be null")
	}
	getJSON(t, ts.URL+"/distance?u=0", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/distance?u=0&v=xyz", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/distance?u=0&v=9999", http.StatusNotFound, nil)
}

func TestInsertEdgeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Find a non-edge through the API by probing distances.
	var d0 distanceResponse
	getJSON(t, ts.URL+"/distance?u=0&v=30", http.StatusOK, &d0)
	if d0.Distance != nil && *d0.Distance == 1 {
		t.Skip("sampled pair already adjacent") // deterministic graph: never happens for this seed
	}
	var er edgeResponse
	postJSON(t, ts.URL+"/edges", `{"u":0,"v":30}`, http.StatusOK, &er)
	var d1 distanceResponse
	getJSON(t, ts.URL+"/distance?u=0&v=30", http.StatusOK, &d1)
	if d1.Distance == nil || *d1.Distance != 1 {
		t.Fatalf("distance after insert: %+v", d1)
	}
	// Duplicate insert conflicts; self-loops and bad JSON are 400; unknown
	// vertices are 404 via the typed sentinels.
	postJSON(t, ts.URL+"/edges", `{"u":0,"v":30}`, http.StatusConflict, nil)
	postJSON(t, ts.URL+"/edges", `{"u":0`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/edges", `{"u":0,"v":0}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/edges", `{"u":0,"v":9999}`, http.StatusNotFound, nil)
}

func TestInsertVertexEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var vr vertexResponse
	postJSON(t, ts.URL+"/vertices", `{"neighbors":[0,5]}`, http.StatusOK, &vr)
	if vr.ID != 60 {
		t.Fatalf("new vertex id: got %d, want 60", vr.ID)
	}
	var d distanceResponse
	getJSON(t, ts.URL+"/distance?u=60&v=0", http.StatusOK, &d)
	if d.Distance == nil || *d.Distance != 1 {
		t.Fatalf("distance to new vertex: %+v", d)
	}
	postJSON(t, ts.URL+"/vertices", `{"neighbors":[4444]}`, http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/vertices", `not json`, http.StatusBadRequest, nil)
}

func TestBatchDistancesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var resp distancesResponse
	postJSON(t, ts.URL+"/distances", `{"pairs":[{"u":0,"v":1},{"u":3,"v":3},{"u":7,"v":40}]}`, http.StatusOK, &resp)
	if len(resp.Distances) != 3 {
		t.Fatalf("distances: %+v", resp)
	}
	for i, d := range resp.Distances {
		if d == nil {
			t.Fatalf("connected graph: distance %d must not be null", i)
		}
	}
	if *resp.Distances[1] != 0 {
		t.Errorf("d(3,3): got %d, want 0", *resp.Distances[1])
	}
	// Batch answers must agree with the single-pair endpoint.
	var single distanceResponse
	getJSON(t, ts.URL+"/distance?u=7&v=40", http.StatusOK, &single)
	if *single.Distance != *resp.Distances[2] {
		t.Errorf("batch %d vs single %d", *resp.Distances[2], *single.Distance)
	}
	postJSON(t, ts.URL+"/distances", `{"pairs":[{"u":0,"v":9999}]}`, http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/distances", `{"pairs":`, http.StatusBadRequest, nil)
	// An empty batch is fine.
	postJSON(t, ts.URL+"/distances", `{"pairs":[]}`, http.StatusOK, &resp)
	if len(resp.Distances) != 0 {
		t.Errorf("empty batch: %+v", resp)
	}
}

// TestDirectedServer pins that the same handler set serves the directed
// variant through the Oracle interface.
func TestDirectedServer(t *testing.T) {
	g := dynhl.NewDigraph(0)
	for i := 0; i < 10; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 9; i++ {
		g.MustAddEdge(i, i+1)
	}
	idx, err := dynhl.BuildDirected(g, dynhl.Options{Landmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx).Handler())
	t.Cleanup(ts.Close)

	var d distanceResponse
	getJSON(t, ts.URL+"/distance?u=0&v=9", http.StatusOK, &d)
	if d.Distance == nil || *d.Distance != 9 {
		t.Fatalf("d(0,9): %+v", d)
	}
	// The reverse direction is unreachable on a directed path.
	getJSON(t, ts.URL+"/distance?u=9&v=0", http.StatusOK, &d)
	if d.Distance != nil {
		t.Fatalf("d(9,0) must be null: %+v", d)
	}
	// A weighted edge must be rejected by the unweighted oracle.
	postJSON(t, ts.URL+"/edges", `{"u":0,"v":5,"w":3}`, http.StatusBadRequest, nil)
	// Close the cycle and re-query through a batch.
	postJSON(t, ts.URL+"/edges", `{"u":9,"v":0}`, http.StatusOK, nil)
	var resp distancesResponse
	postJSON(t, ts.URL+"/distances", `{"pairs":[{"u":9,"v":0},{"u":5,"v":2}]}`, http.StatusOK, &resp)
	if *resp.Distances[0] != 1 || *resp.Distances[1] != 7 {
		t.Fatalf("batch after cycle close: %+v", resp)
	}
	// Incoming arcs via the full vertex form.
	var vr vertexResponse
	postJSON(t, ts.URL+"/vertices", `{"arcs":[{"to":0},{"to":9,"in":true}]}`, http.StatusOK, &vr)
	getJSON(t, ts.URL+"/distance?u=9&v="+strconv.Itoa(int(vr.ID)), http.StatusOK, &d)
	if d.Distance == nil || *d.Distance != 1 {
		t.Fatalf("d(9,new): %+v", d)
	}
}

// TestWeightedServer pins the weighted variant behind the same handlers.
func TestWeightedServer(t *testing.T) {
	g := dynhl.NewWeightedGraph(0)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 5; i++ {
		g.MustAddEdge(i, i+1, 10)
	}
	idx, err := dynhl.BuildWeighted(g, dynhl.Options{Landmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx).Handler())
	t.Cleanup(ts.Close)

	var d distanceResponse
	getJSON(t, ts.URL+"/distance?u=0&v=5", http.StatusOK, &d)
	if d.Distance == nil || *d.Distance != 50 {
		t.Fatalf("d(0,5): %+v", d)
	}
	// A weight-2 shortcut across the whole path.
	postJSON(t, ts.URL+"/edges", `{"u":0,"v":5,"w":2}`, http.StatusOK, nil)
	getJSON(t, ts.URL+"/distance?u=0&v=5", http.StatusOK, &d)
	if d.Distance == nil || *d.Distance != 2 {
		t.Fatalf("d(0,5) after shortcut: %+v", d)
	}
	var vr vertexResponse
	postJSON(t, ts.URL+"/vertices", `{"arcs":[{"to":5,"w":4}]}`, http.StatusOK, &vr)
	getJSON(t, ts.URL+"/distance?u=0&v="+strconv.Itoa(int(vr.ID)), http.StatusOK, &d)
	if d.Distance == nil || *d.Distance != 6 {
		t.Fatalf("d(0,new): %+v", d)
	}
}

func doDelete(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("DELETE %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeleteEdgeEndpoint drives a full insert → delete → reinsert cycle
// over HTTP, including the 404 mappings of the typed sentinels.
func TestDeleteEdgeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/edges", `{"u":0,"v":30}`, http.StatusOK, nil)
	var d distanceResponse
	getJSON(t, ts.URL+"/distance?u=0&v=30", http.StatusOK, &d)
	if d.Distance == nil || *d.Distance != 1 {
		t.Fatalf("distance after insert: %+v", d)
	}
	var er edgeResponse
	doDelete(t, ts.URL+"/edges?u=0&v=30", http.StatusOK, &er)
	getJSON(t, ts.URL+"/distance?u=0&v=30", http.StatusOK, &d)
	if d.Distance != nil && *d.Distance == 1 {
		t.Fatalf("edge still answers distance 1 after delete: %+v", d)
	}
	// Deleting again: the edge is gone → 404. Unknown vertices → 404.
	doDelete(t, ts.URL+"/edges?u=0&v=30", http.StatusNotFound, nil)
	doDelete(t, ts.URL+"/edges?u=0&v=9999", http.StatusNotFound, nil)
	doDelete(t, ts.URL+"/edges?u=0", http.StatusBadRequest, nil)
	// Reinsert restores the distance.
	postJSON(t, ts.URL+"/edges", `{"u":0,"v":30}`, http.StatusOK, nil)
	getJSON(t, ts.URL+"/distance?u=0&v=30", http.StatusOK, &d)
	if d.Distance == nil || *d.Distance != 1 {
		t.Fatalf("distance after reinsert: %+v", d)
	}
}

// TestDeleteVertexEndpoint isolates a vertex over HTTP: its distances all
// go null (Inf) while its id stays valid.
func TestDeleteVertexEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var vr vertexResponse
	postJSON(t, ts.URL+"/vertices", `{"neighbors":[0,5]}`, http.StatusOK, &vr)
	id := strconv.Itoa(int(vr.ID))
	doDelete(t, ts.URL+"/vertices?v="+id, http.StatusOK, nil)
	var d distanceResponse
	getJSON(t, ts.URL+"/distance?u="+id+"&v=0", http.StatusOK, &d)
	if d.Distance != nil {
		t.Fatalf("isolated vertex still reachable: %+v", d)
	}
	doDelete(t, ts.URL+"/vertices?v=9999", http.StatusNotFound, nil)
}

// TestPayloadCaps pins the 413 defence for oversized batch requests and
// bodies.
func TestPayloadCaps(t *testing.T) {
	g := testutil.RandomConnectedGraph(20, 30, 4)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	srv.maxBatchPairs, srv.maxBodyBytes = 2, 256
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	postJSON(t, ts.URL+"/distances", `{"pairs":[{"u":0,"v":1},{"u":1,"v":2}]}`, http.StatusOK, nil)
	postJSON(t, ts.URL+"/distances", `{"pairs":[{"u":0,"v":1},{"u":1,"v":2},{"u":2,"v":3}]}`,
		http.StatusRequestEntityTooLarge, nil)
	big := `{"pairs":[` + strings.Repeat(`{"u":0,"v":1},`, 100) + `{"u":0,"v":1}]}`
	postJSON(t, ts.URL+"/distances", big, http.StatusRequestEntityTooLarge, nil)
	postJSON(t, ts.URL+"/vertices", `{"neighbors":[`+strings.Repeat("0,", 200)+`0]}`,
		http.StatusRequestEntityTooLarge, nil)
}

// TestEpochHeader pins the versioned serving contract: every response
// names its snapshot epoch, reads do not advance it, successful updates
// advance it by exactly one, failed updates leave it unchanged.
func TestEpochHeader(t *testing.T) {
	ts := newTestServer(t)
	epoch := func(resp *http.Response) uint64 {
		t.Helper()
		raw := resp.Header.Get("X-Oracle-Epoch")
		if raw == "" {
			t.Fatal("missing X-Oracle-Epoch header")
		}
		e, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	resp, err := http.Get(ts.URL + "/distance?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e := epoch(resp); e != 0 {
		t.Fatalf("fresh server epoch: %d", e)
	}
	resp, err = http.Post(ts.URL+"/edges", "application/json", strings.NewReader(`{"u":0,"v":30}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e := epoch(resp); e != 1 {
		t.Fatalf("epoch after insert: %d", e)
	}
	// A failed mutation (duplicate edge) must not advance the epoch.
	resp, err = http.Post(ts.URL+"/edges", "application/json", strings.NewReader(`{"u":0,"v":30}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate insert: status %d", resp.StatusCode)
	}
	if e := epoch(resp); e != 1 {
		t.Fatalf("epoch after failed insert: %d", e)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e := epoch(resp); e != 1 {
		t.Fatalf("stats epoch: %d", e)
	}
}

// TestUpdatesEndpoint drives POST /updates: a mixed batch lands atomically
// as one epoch, a batch failing mid-way changes nothing, and the op cap
// answers 413.
func TestUpdatesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var ur updatesResponse
	postJSON(t, ts.URL+"/updates",
		`{"ops":[{"op":"insert_edge","u":0,"v":30},{"op":"insert_vertex","neighbors":null,"arcs":[{"to":5}]},{"op":"delete_edge","u":0,"v":30}]}`,
		http.StatusOK, &ur)
	if ur.Epoch != 1 {
		t.Fatalf("batch epoch: %d", ur.Epoch)
	}
	if len(ur.Results) != 3 {
		t.Fatalf("results: %d", len(ur.Results))
	}
	if ur.Results[1].NewVertex == nil || *ur.Results[1].NewVertex != 60 {
		t.Fatalf("insert_vertex result: %+v", ur.Results[1])
	}
	// The batch inserted then deleted (0,30): the published snapshot must
	// not have it.
	var d distanceResponse
	getJSON(t, ts.URL+"/distance?u=0&v=30", http.StatusOK, &d)
	if d.Distance != nil && *d.Distance == 1 {
		t.Fatal("delete inside the batch was lost")
	}

	// Mid-batch failure: op 0 would apply, op 1 deletes a missing edge.
	// All-or-nothing: the eventual distance must be unchanged.
	postJSON(t, ts.URL+"/updates",
		`{"ops":[{"op":"insert_edge","u":0,"v":30},{"op":"delete_edge","u":0,"v":31}]}`,
		http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/distance?u=0&v=30", http.StatusOK, &d)
	if d.Distance != nil && *d.Distance == 1 {
		t.Fatal("half-applied batch is visible")
	}

	// Unknown op kinds are 400, oversized batches 413.
	postJSON(t, ts.URL+"/updates", `{"ops":[{"op":"explode"}]}`, http.StatusBadRequest, nil)
	srv2 := New(mustBuild(t))
	srv2.maxBatchOps = 1
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	postJSON(t, ts2.URL+"/updates",
		`{"ops":[{"op":"insert_edge","u":0,"v":9},{"op":"delete_edge","u":0,"v":9}]}`,
		http.StatusRequestEntityTooLarge, nil)
}

func mustBuild(t *testing.T) dynhl.Oracle {
	t.Helper()
	g := testutil.RandomConnectedGraph(20, 30, 4)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestLabelsEndpoints pins labelling download/upload round trips on the
// undirected and directed variants.
func TestLabelsEndpoints(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/labels")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /labels: status %d", resp.StatusCode)
	}
	if len(blob) == 0 {
		t.Fatal("empty labelling stream")
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/labels", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT /labels: status %d", resp.StatusCode)
	}
	if e := resp.Header.Get("X-Oracle-Epoch"); e != "1" {
		t.Fatalf("PUT /labels must publish a new epoch, got %q", e)
	}

	// The directed variant serialises too: its labels round-trip through
	// GET /labels → PUT /labels and the epoch advances on the PUT.
	g := dynhl.NewDigraph(0)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 5; i++ {
		g.MustAddEdge(i, i+1)
	}
	dir, err := dynhl.BuildDirected(g, dynhl.Options{Landmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsDir := httptest.NewServer(New(dir).Handler())
	t.Cleanup(tsDir.Close)
	resp, err = http.Get(tsDir.URL + "/labels")
	if err != nil {
		t.Fatal(err)
	}
	dirBlob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(dirBlob) == 0 {
		t.Fatalf("GET /labels on directed: status %d, %d bytes", resp.StatusCode, len(dirBlob))
	}
	req, err = http.NewRequest(http.MethodPut, tsDir.URL+"/labels", bytes.NewReader(dirBlob))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT /labels on directed: status %d", resp.StatusCode)
	}
	if e := resp.Header.Get("X-Oracle-Epoch"); e != "1" {
		t.Fatalf("PUT /labels on directed must publish a new epoch, got %q", e)
	}
}

// TestLabelsCaps pins that PUT /labels is bounded by the dedicated label
// cap, not the (much smaller) JSON body cap — the GET → PUT round trip must
// survive labellings bigger than a JSON request — and that the label cap
// itself still answers 413.
func TestLabelsCaps(t *testing.T) {
	g := testutil.RandomConnectedGraph(60, 110, 4)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	srv.maxBodyBytes = 64
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/labels")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) <= 64 {
		t.Fatalf("fixture labelling too small (%d bytes) to exercise the cap split", len(blob))
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/labels", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT /labels larger than the JSON cap: status %d, want 204", resp.StatusCode)
	}

	small := New(idx)
	small.maxLabelBytes = 16
	tsSmall := httptest.NewServer(small.Handler())
	t.Cleanup(tsSmall.Close)
	req, err = http.NewRequest(http.MethodPut, tsSmall.URL+"/labels", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("PUT /labels over the label cap: status %d, want 413", resp.StatusCode)
	}
}

func TestStatsAndHealth(t *testing.T) {
	ts := newTestServer(t)
	var st dynhl.Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Vertices != 60 || st.Landmarks != 5 || st.LabelEntries <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
}

// TestDurabilityEndpointsUnsupported checks the admin endpoints answer 501
// on a server without a durability layer.
func TestDurabilityEndpointsUnsupported(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/checkpoint", "", http.StatusNotImplemented, nil)
	getJSON(t, ts.URL+"/wal/stats", http.StatusNotImplemented, nil)
}

// TestDurabilityEndpoints runs the admin surface against a real WAL in a
// temp directory: /stats carries the epoch and WAL counters, /checkpoint
// advances the checkpoint epoch, /wal/stats reports it.
func TestDurabilityEndpoints(t *testing.T) {
	g := testutil.RandomConnectedGraph(40, 80, 4)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := wal.Create(t.TempDir(), idx, wal.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ts := httptest.NewServer(New(d.Store(), WithDurability(d)).Handler())
	t.Cleanup(ts.Close)

	postJSON(t, ts.URL+"/updates", `{"ops":[{"op":"insert_vertex","arcs":[{"to":0},{"to":1}]}]}`, http.StatusOK, nil)

	var st dynhl.Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Epoch != 1 {
		t.Fatalf("/stats epoch %d, want 1", st.Epoch)
	}
	if st.Durability == nil || st.Durability.Records != 1 {
		t.Fatalf("/stats durability %+v, want 1 appended record", st.Durability)
	}

	var ck struct {
		Epoch uint64 `json:"epoch"`
	}
	postJSON(t, ts.URL+"/checkpoint", "", http.StatusOK, &ck)
	if ck.Epoch != 1 {
		t.Fatalf("/checkpoint epoch %d, want 1", ck.Epoch)
	}

	var ws dynhl.DurabilityStats
	getJSON(t, ts.URL+"/wal/stats", http.StatusOK, &ws)
	if ws.CheckpointEpoch != 1 || ws.DurableEpoch != 1 {
		t.Fatalf("/wal/stats %+v: want checkpoint and durable epoch 1", ws)
	}
}
