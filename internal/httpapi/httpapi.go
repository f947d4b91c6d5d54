// Package httpapi exposes a dynamic distance oracle over HTTP with a small
// JSON API, turning the library into the kind of service the paper's
// motivating applications (context-aware search, social analysis, network
// management) would deploy. It is written against the dynhl.Oracle
// interface, so one handler set serves undirected, directed and weighted
// graphs alike:
//
//	GET    /distance?u=U&v=V   exact distance ("distance": null when
//	                           unreachable)
//	POST   /distances          {"pairs":[{"u":U,"v":V},...]} — batch query,
//	                           answered against one snapshot and honouring
//	                           request cancellation mid-batch
//	POST   /updates            {"ops":[{"op":"insert_edge","u":U,"v":V},
//	                           {"op":"delete_edge",...},...]} — apply a
//	                           batch of mutations as ONE atomic publish:
//	                           readers see all of it or none of it, and the
//	                           epoch advances by exactly one
//	POST   /edges              {"u":U,"v":V,"w":W} — insert an edge (weight
//	                           optional, weighted oracles only), index
//	                           repaired with IncHL+
//	DELETE /edges?u=U&v=V      delete an edge, index repaired with DecHL
//	POST   /vertices           {"neighbors":[..]} or {"arcs":[{"to":T,"w":W,
//	                           "in":B},..]} — insert a vertex
//	DELETE /vertices?v=V       disconnect a vertex (all incident edges)
//	GET    /labels             download the labelling (binary stream; 500
//	                           when writing it fails)
//	PUT    /labels             replace the labelling from a stream saved
//	                           over the same graph (400 when the stream is
//	                           rejected, 413 beyond the labelling size cap)
//	GET    /stats              index size statistics, current epoch, and —
//	                           on a durable server — the WAL counters; on a
//	                           replicated one, role and lag
//	GET    /healthz            readiness: role, epoch, replication lag; 503
//	                           until a replica has bootstrapped, so load
//	                           balancers route around a catching-up follower
//
// A durable server (one whose store has a write-ahead log attached, see
// internal/wal and the WithDurability option) additionally serves the
// admin endpoints:
//
//	POST   /checkpoint         write a checkpoint of the current snapshot
//	                           and truncate superseded log segments;
//	                           responds {"epoch": E}
//	GET    /wal/stats          WAL counters alone (records, bytes, fsyncs,
//	                           durable epoch / LSN, checkpoint epoch,
//	                           segments, replay count)
//
// Without durability attached both answer 501.
//
// Every response carries an X-Oracle-Epoch header naming the published
// version it was served from (reads) or produced (writes). Reads are served
// lock-free from one immutable snapshot per request — a request never
// observes a half-applied update batch and never waits on a writer, however
// long its repair runs.
//
// A server started with NewReplica serves a read-scaling follower
// (internal/repl): the full read API works as above, while every mutating
// endpoint answers 503 with an X-Oracle-Leader header and a JSON leader
// hint — writes belong on the leader. Read-your-writes across replicas
// rides the epoch header in the other direction: a request carrying
// X-Oracle-Epoch: N (the epoch a write on the leader reported) makes any
// read endpoint wait — bounded by EpochWait — until the serving store
// has published N, so a client can write to the leader and immediately
// read its write from any follower. The wait degrades to a no-op on the
// leader itself, so clients can send the header unconditionally.
//
// Mutation failures map onto status codes through the dynhl sentinel
// errors: unknown vertices and edges are 404, inserting an edge that
// already exists is 409, capability gaps (errors.ErrUnsupported, such as
// the durability endpoints on a non-durable server) are 501, anything else the oracle rejects is 400. Untrusted
// input is bounded: request bodies beyond MaxBodyBytes, batches beyond
// MaxBatchPairs and update batches beyond MaxBatchOps are rejected with 413
// before any result allocation.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	dynhl "repro"
)

// Limits on untrusted input.
const (
	// MaxBatchPairs bounds the number of pairs one POST /distances may ask
	// for; each pair costs a query and eight bytes of result.
	MaxBatchPairs = 10000
	// MaxBodyBytes bounds the size of any JSON request body.
	MaxBodyBytes = 1 << 20
	// MaxBatchOps bounds the number of ops one POST /updates may carry;
	// each op costs an IncHL+/DecHL repair on the working copy.
	MaxBatchOps = 1000
	// MaxLabelBytes bounds the binary labelling stream of PUT
	// /labels. Labellings are ~6 bytes per entry, so real indexes run to
	// many megabytes — the JSON body cap would break the GET → PUT round
	// trip.
	MaxLabelBytes = 1 << 30
)

// Option customises a Server.
type Option func(*Server)

// Durability is the admin capability of a durable store (implemented by
// *wal.Durable): trigger a checkpoint, read the WAL counters.
type Durability interface {
	Checkpoint() (uint64, error)
	DurabilityStats() dynhl.DurabilityStats
}

// WithDurability exposes the durability admin endpoints (POST /checkpoint,
// GET /wal/stats) backed by d.
func WithDurability(d Durability) Option {
	return func(s *Server) { s.durability = d }
}

// EpochWait bounds how long a read carrying an X-Oracle-Epoch request
// header may wait for the serving store to catch up to that epoch.
const EpochWait = 2 * time.Second

// Replica is the follower capability the server needs to serve a read
// replica (implemented by *repl.Follower): the replica store — nil until
// the first bootstrap lands — plus where writes should go instead and the
// lag surfaced by /healthz.
type Replica interface {
	Store() *dynhl.Store
	ReplicationStats() dynhl.ReplicationStats
	Leader() string
}

// NewReplica returns a Server serving a follower's replica store: the read
// API in full, 503 + a leader hint on every write, 503 from /healthz until
// the bootstrap completes.
func NewReplica(r Replica, opts ...Option) *Server { return newServer(nil, r, opts) }

// Server wraps an oracle with HTTP handlers over a versioned snapshot
// store: reads load one immutable snapshot per request, writes publish new
// epochs.
type Server struct {
	store   *dynhl.Store
	replica Replica // non-nil on a follower: store comes from here
	// The input caps and the epoch wait, set from the constants; only
	// the package's tests lower them.
	maxBatchPairs int
	maxBodyBytes  int64
	maxBatchOps   int
	maxLabelBytes int64
	epochWait     time.Duration
	durability    Durability // nil on a non-durable server
	start         time.Time  // process-visible start, for uptime_seconds
}

// New returns a Server serving o through a dynhl.Store, reusing it when o
// already is one. o must otherwise be one of dynhl's index variants
// (dynhl.NewStore panics on any other Oracle).
func New(o dynhl.Oracle, opts ...Option) *Server { return newServer(dynhl.NewStore(o), nil, opts) }

// newServer returns a Server over store or, on a follower, replica.
func newServer(store *dynhl.Store, replica Replica, opts []Option) *Server {
	s := &Server{
		store:         store,
		replica:       replica,
		maxBatchPairs: MaxBatchPairs,
		maxBodyBytes:  MaxBodyBytes,
		maxBatchOps:   MaxBatchOps,
		maxLabelBytes: MaxLabelBytes,
		epochWait:     EpochWait,
		start:         time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// epochHeader is the response header naming the snapshot version served or
// produced.
const epochHeader = "X-Oracle-Epoch"

func tagEpoch(w http.ResponseWriter, epoch uint64) {
	w.Header().Set(epochHeader, strconv.FormatUint(epoch, 10))
}

// leaderHeader carries the leader's replication address when a replica
// refuses a write.
const leaderHeader = "X-Oracle-Leader"

// readStore resolves the store a read serves from, answering 503 while a
// replica is still bootstrapping. A request carrying an X-Oracle-Epoch
// header is read-your-writes: the read waits — bounded by EpochWait —
// until the store has published that epoch, and answers 503 (with the
// current epoch tagged) when it cannot catch up in time.
func (s *Server) readStore(w http.ResponseWriter, r *http.Request) (*dynhl.Store, bool) {
	st := s.store
	if s.replica != nil {
		st = s.replica.Store()
	}
	if st == nil {
		httpError(w, http.StatusServiceUnavailable, errors.New("replica is bootstrapping; retry shortly"))
		return nil, false
	}
	if raw := r.Header.Get(epochHeader); raw != "" {
		epoch, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q: %w", epochHeader, raw, err))
			return nil, false
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.epochWait)
		defer cancel()
		if err := st.WaitEpoch(ctx, epoch); err != nil {
			tagEpoch(w, st.Epoch())
			httpError(w, http.StatusServiceUnavailable,
				fmt.Errorf("still at epoch %d, not yet %d: %w", st.Epoch(), epoch, err))
			return nil, false
		}
	}
	return st, true
}

// writeStore resolves the store a mutation goes to; a replica answers 503
// with the leader's address instead — writes belong on the leader.
func (s *Server) writeStore(w http.ResponseWriter) (*dynhl.Store, bool) {
	if s.replica != nil {
		w.Header().Set(leaderHeader, s.replica.Leader())
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error":  "this server is a read replica; send writes to the leader",
			"leader": s.replica.Leader(),
		})
		return nil, false
	}
	return s.store, true
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /distance", s.distance)
	mux.HandleFunc("POST /distances", s.distances)
	mux.HandleFunc("POST /updates", s.updates)
	mux.HandleFunc("POST /edges", s.insertEdge)
	mux.HandleFunc("DELETE /edges", s.deleteEdge)
	mux.HandleFunc("POST /vertices", s.insertVertex)
	mux.HandleFunc("DELETE /vertices", s.deleteVertex)
	mux.HandleFunc("GET /labels", s.saveLabels)
	mux.HandleFunc("PUT /labels", s.loadLabels)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("POST /checkpoint", s.checkpoint)
	mux.HandleFunc("GET /wal/stats", s.walStats)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.metrics)
	return mux
}

// distanceResponse is the JSON shape of GET /distance.
type distanceResponse struct {
	U        uint32  `json:"u"`
	V        uint32  `json:"v"`
	Distance *uint32 `json:"distance"` // null when unreachable
}

func (s *Server) distance(w http.ResponseWriter, r *http.Request) {
	u, err := vertexParam(r, "u")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	v, err := vertexParam(r, "v")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	st, ok := s.readStore(w, r)
	if !ok {
		return
	}
	// One snapshot serves validation and query: the answer is guaranteed
	// consistent with the single epoch named in the response header.
	view := st.Snapshot()
	tagEpoch(w, view.Epoch())
	n := view.NumVertices()
	if int(u) >= n || int(v) >= n {
		httpError(w, http.StatusNotFound, fmt.Errorf("vertex out of range (have %d vertices)", n))
		return
	}
	d := view.Query(u, v)
	writeJSON(w, http.StatusOK, distanceResponse{U: u, V: v, Distance: jsonDist(d)})
}

// distancesRequest is the JSON shape of POST /distances.
type distancesRequest struct {
	Pairs []dynhl.Pair `json:"pairs"`
}

// distancesResponse answers pairs positionally; null marks unreachable.
type distancesResponse struct {
	Distances []*uint32 `json:"distances"`
}

func (s *Server) distances(w http.ResponseWriter, r *http.Request) {
	var req distancesRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Pairs) > s.maxBatchPairs {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d pairs exceeds the %d-pair cap", len(req.Pairs), s.maxBatchPairs))
		return
	}
	st, ok := s.readStore(w, r)
	if !ok {
		return
	}
	view := st.Snapshot()
	tagEpoch(w, view.Epoch())
	n := view.NumVertices()
	for i, p := range req.Pairs {
		if int(p.U) >= n || int(p.V) >= n {
			httpError(w, http.StatusNotFound,
				fmt.Errorf("pair %d: vertex out of range (have %d vertices)", i, n))
			return
		}
	}
	ds, err := view.QueryBatchCtx(r.Context(), req.Pairs)
	if err != nil {
		// The client went away mid-batch; stop burning cycles. 499 is the
		// de-facto "client closed request" status.
		httpError(w, 499, err)
		return
	}
	resp := distancesResponse{Distances: make([]*uint32, len(ds))}
	for i, d := range ds {
		resp.Distances[i] = jsonDist(d)
	}
	writeJSON(w, http.StatusOK, resp)
}

// updatesRequest is the JSON shape of POST /updates: a batch of ops applied
// as one atomic publish.
type updatesRequest struct {
	Ops []dynhl.Op `json:"ops"`
}

// updatesResponse reports the epoch the batch published, whether that
// epoch was a group commit shared with other concurrent writers, and one
// summary per op (insert_vertex summaries carry the new vertex id).
type updatesResponse struct {
	Epoch     uint64                `json:"epoch"`
	Coalesced bool                  `json:"coalesced"`
	Results   []dynhl.UpdateSummary `json:"results"`
}

func (s *Server) updates(w http.ResponseWriter, r *http.Request) {
	var req updatesRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Ops) > s.maxBatchOps {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d ops exceeds the %d-op cap", len(req.Ops), s.maxBatchOps))
		return
	}
	st, ok := s.writeStore(w)
	if !ok {
		return
	}
	// ApplyCtx reports the exact epoch this batch published — the coalesced
	// epoch when the store group-committed it with other writers — so the
	// attribution stays right under concurrency, and honours the request
	// context: a client that goes away while its batch is still queued is
	// excised without committing.
	res, err := st.ApplyCtx(r.Context(), req.Ops)
	tagEpoch(w, res.Epoch)
	if err != nil {
		applyError(w, err)
		return
	}
	sums := res.Summaries
	if sums == nil {
		sums = []dynhl.UpdateSummary{}
	}
	writeJSON(w, http.StatusOK, updatesResponse{Epoch: res.Epoch, Coalesced: res.Coalesced, Results: sums})
}

type edgeRequest struct {
	U uint32     `json:"u"`
	V uint32     `json:"v"`
	W dynhl.Dist `json:"w"` // optional; 0 means 1, >1 only on weighted oracles
}

// edgeResponse reports what an edge insertion or deletion, or a vertex
// deletion, did.
type edgeResponse struct {
	Affected       int `json:"affected"`
	EntriesAdded   int `json:"entries_added"`
	EntriesRemoved int `json:"entries_removed"`
}

func edgeResult(sum dynhl.UpdateSummary) edgeResponse {
	return edgeResponse{Affected: sum.Affected, EntriesAdded: sum.EntriesAdded, EntriesRemoved: sum.EntriesRemoved}
}

// applyOne publishes op as a batch of its own — the write path of the
// single-op endpoints — and tags the epoch. When it reports false it has
// already answered: 503 on a replica, or the status applyError maps the
// failure to.
func (s *Server) applyOne(w http.ResponseWriter, r *http.Request, op dynhl.Op) (dynhl.UpdateSummary, bool) {
	st, ok := s.writeStore(w)
	if !ok {
		return dynhl.UpdateSummary{}, false
	}
	res, err := st.ApplyCtx(r.Context(), []dynhl.Op{op})
	tagEpoch(w, res.Epoch)
	if err != nil {
		applyError(w, err)
		return dynhl.UpdateSummary{}, false
	}
	return res.Summaries[0], true
}

func (s *Server) insertEdge(w http.ResponseWriter, r *http.Request) {
	var req edgeRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if sum, ok := s.applyOne(w, r, dynhl.InsertEdgeOp(req.U, req.V, req.W)); ok {
		writeJSON(w, http.StatusOK, edgeResult(sum))
	}
}

// deleteEdge serves DELETE /edges?u=U&v=V: the edge is removed and the
// labelling repaired with DecHL.
func (s *Server) deleteEdge(w http.ResponseWriter, r *http.Request) {
	u, err := vertexParam(r, "u")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	v, err := vertexParam(r, "v")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if sum, ok := s.applyOne(w, r, dynhl.DeleteEdgeOp(u, v)); ok {
		writeJSON(w, http.StatusOK, edgeResult(sum))
	}
}

// deleteVertex serves DELETE /vertices?v=V: every incident edge of v is
// deleted, leaving the id behind as an isolated vertex.
func (s *Server) deleteVertex(w http.ResponseWriter, r *http.Request) {
	v, err := vertexParam(r, "v")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if sum, ok := s.applyOne(w, r, dynhl.DeleteVertexOp(v)); ok {
		writeJSON(w, http.StatusOK, edgeResult(sum))
	}
}

type vertexRequest struct {
	// Neighbors is the plain form: outgoing unit-weight arcs.
	Neighbors []uint32 `json:"neighbors"`
	// Arcs is the full form for weighted/directed oracles.
	Arcs []dynhl.Arc `json:"arcs"`
}

type vertexResponse struct {
	ID       uint32 `json:"id"`
	Affected int    `json:"affected"`
}

func (s *Server) insertVertex(w http.ResponseWriter, r *http.Request) {
	var req vertexRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	arcs := append(dynhl.Arcs(req.Neighbors...), req.Arcs...)
	if sum, ok := s.applyOne(w, r, dynhl.InsertVertexOp(arcs...)); ok {
		writeJSON(w, http.StatusOK, vertexResponse{ID: *sum.NewVertex, Affected: sum.Affected})
	}
}

// saveLabels serves GET /labels: one snapshot's labelling as a binary
// stream. Snapshot and epoch header come from the same View, so the tag
// names exactly the version streamed — and because snapshots are immutable
// the download never blocks writers and stays internally consistent
// however long it takes, whatever publishes meanwhile.
func (s *Server) saveLabels(w http.ResponseWriter, r *http.Request) {
	st, ok := s.readStore(w, r)
	if !ok {
		return
	}
	view := st.Snapshot()
	tagEpoch(w, view.Epoch())
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := view.Save(w); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}

// loadLabels serves PUT /labels: replace the labelling from a stream saved
// over the same graph, published as a new epoch. The stream is bounded by
// MaxLabelBytes, not the JSON body cap — labellings of real indexes run to
// many megabytes.
func (s *Server) loadLabels(w http.ResponseWriter, r *http.Request) {
	st, ok := s.writeStore(w)
	if !ok {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxLabelBytes)
	epoch, err := st.LoadEpoch(body)
	tagEpoch(w, epoch)
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("labelling stream exceeds the %d-byte cap", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	// A replica that has not bootstrapped yet has no index to describe, but
	// its replication state is exactly what a caller probing it wants.
	store := s.store
	if s.replica != nil {
		if store = s.replica.Store(); store == nil {
			rs := s.replica.ReplicationStats()
			writeJSON(w, http.StatusOK, statsResponse{
				Stats:  dynhl.Stats{Replication: &rs},
				Server: s.serverInfo(),
			})
			return
		}
	}
	// Store.Stats (not a snapshot's) so a durable server's WAL counters
	// ride along; its Epoch field names the snapshot it was taken from.
	st := store.Stats()
	tagEpoch(w, st.Epoch)
	writeJSON(w, http.StatusOK, statsResponse{Stats: st, Server: s.serverInfo()})
}

// healthResponse is the JSON shape of GET /healthz — the readiness signal
// a load balancer routes on.
type healthResponse struct {
	Status    string `json:"status"` // "ok" or "bootstrapping"
	Role      string `json:"role"`   // "standalone", "leader" or "follower"
	Ready     bool   `json:"ready"`
	Epoch     uint64 `json:"epoch"`
	LagEpochs uint64 `json:"lag_epochs,omitempty"`
	LagBytes  uint64 `json:"lag_bytes,omitempty"`
	Leader    string `json:"leader,omitempty"`
	// MappedBytes is the mmap'd checkpoint region the served labelling
	// still draws entries from — non-zero means this process booted
	// zero-copy and its labels page in on demand.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// Server carries uptime, build identity and runtime basics (obs.go).
	Server serverInfo `json:"server"`
}

// healthz reports readiness: 200 once the serving store exists (for a
// replica, once its bootstrap completed), 503 before — so a load balancer
// only routes to replicas that can actually answer. Role and lag ride
// along for operators and lag-aware routers.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok", Role: "standalone", Ready: true, Server: s.serverInfo()}
	if s.replica != nil {
		rs := s.replica.ReplicationStats()
		resp.Role, resp.Ready = rs.Role, rs.Ready
		resp.LagEpochs, resp.LagBytes = rs.LagEpochs, rs.LagBytes
		resp.Leader = rs.Leader
		if st := s.replica.Store(); st != nil {
			resp.Epoch = st.Epoch()
			resp.MappedBytes = st.Stats().MappedBytes
		}
		if !rs.Ready {
			resp.Status = "bootstrapping"
			writeJSON(w, http.StatusServiceUnavailable, resp)
			return
		}
	} else {
		resp.Epoch = s.store.Epoch()
		st := s.store.Stats()
		resp.MappedBytes = st.MappedBytes
		if rst := st.Replication; rst != nil {
			resp.Role = rst.Role
			resp.LagEpochs = rst.LagEpochs
		}
	}
	tagEpoch(w, resp.Epoch)
	writeJSON(w, http.StatusOK, resp)
}

// checkpointResponse is the JSON shape of POST /checkpoint.
type checkpointResponse struct {
	Epoch uint64 `json:"epoch"`
}

// checkpoint serves POST /checkpoint on durable servers: the current
// snapshot's full state is written and superseded log segments are
// truncated. The work runs against a pinned immutable snapshot, so
// in-flight queries and updates are never blocked.
func (s *Server) checkpoint(w http.ResponseWriter, r *http.Request) {
	if s.durability == nil {
		httpError(w, http.StatusNotImplemented,
			fmt.Errorf("this server has no durability layer (start it with a data directory): %w", errors.ErrUnsupported))
		return
	}
	epoch, err := s.durability.Checkpoint()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	tagEpoch(w, epoch)
	writeJSON(w, http.StatusOK, checkpointResponse{Epoch: epoch})
}

// walStats serves GET /wal/stats on durable servers.
func (s *Server) walStats(w http.ResponseWriter, r *http.Request) {
	if s.durability == nil {
		httpError(w, http.StatusNotImplemented,
			fmt.Errorf("this server has no durability layer (start it with a data directory): %w", errors.ErrUnsupported))
		return
	}
	writeJSON(w, http.StatusOK, s.durability.DurabilityStats())
}

func jsonDist(d dynhl.Dist) *uint32 {
	if d == dynhl.Inf {
		return nil
	}
	dd := uint32(d)
	return &dd
}

func vertexParam(r *http.Request, name string) (uint32, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q: %w", raw, err)
	}
	return uint32(v), nil
}

// decodeJSON decodes a request body capped at maxBodyBytes, answering 413
// for oversized payloads and 400 for malformed ones. It reports whether the
// handler should proceed.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	if err := json.NewDecoder(body).Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte cap", tooLarge.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return false
	}
	return true
}

// applyError maps write-path failures: a request context cancelled while
// the batch was still queued gets 499 ("client closed request"), exactly
// as batch reads already do; everything else is an update error.
func applyError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		httpError(w, 499, err)
		return
	}
	updateError(w, err)
}

// updateError maps a mutation failure onto a status code through the dynhl
// sentinel errors.
func updateError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, dynhl.ErrNoSuchVertex), errors.Is(err, dynhl.ErrNoSuchEdge):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, dynhl.ErrEdgeExists):
		httpError(w, http.StatusConflict, err)
	case errors.Is(err, errors.ErrUnsupported):
		httpError(w, http.StatusNotImplemented, err)
	default:
		httpError(w, http.StatusBadRequest, err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
