package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/bench/workload"
)

// requestTimeout bounds one request; a timeout counts as a failure.
const requestTimeout = 10 * time.Second

// record is one completed (or failed) request of a connection.
type record struct {
	done  time.Duration // completion, since the load started
	lat   time.Duration // send → body fully read
	ok    bool
	write bool
	pairs [][2]uint32   // reads: the pairs asked
	dists []uint32      // reads: the answers, workload.Inf for null
	ops   []workload.Op // writes: the update batch sent
	epoch uint64        // X-Oracle-Epoch of the response
}

// conn is one closed-loop client connection: it sends its next request
// only after the previous response has been read in full.
type conn struct {
	client *http.Client
	base   string
	recs   []record
	// problem is set when the connection stopped early for a reason the
	// correctness gate must report (a write whose outcome is unknown).
	problem error
}

func newConn(addr string) *conn {
	// One transport per connection, one idle socket each: every request
	// rides the same keep-alive TCP connection.
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: requestTimeout}, base: "http://" + addr}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends req and reads the whole body, returning the latency.
func (c *conn) do(req *http.Request) (body []byte, epoch uint64, lat time.Duration, err error) {
	t := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, time.Since(t), err
	}
	body, err = io.ReadAll(resp.Body)
	lat = time.Since(t)
	resp.Body.Close()
	if err != nil {
		return nil, 0, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, lat, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	epoch, err = strconv.ParseUint(resp.Header.Get("X-Oracle-Epoch"), 10, 64)
	if err != nil {
		return nil, 0, lat, fmt.Errorf("bad X-Oracle-Epoch: %w", err)
	}
	return body, epoch, lat, nil
}

// readLoop sends distance reads until ctx ends: GET /distance when batch is
// 0, else POST /distances with batch pairs.
func (c *conn) readLoop(ctx context.Context, t0 time.Time, pairs *workload.Pairs, batch int) {
	for ctx.Err() == nil {
		rec := record{}
		var body []byte
		var epoch uint64
		var lat time.Duration
		var err error
		if batch == 0 {
			u, v := pairs.Next()
			rec.pairs = [][2]uint32{{u, v}}
			req, _ := http.NewRequest(http.MethodGet, c.base+"/distance?u="+strconv.FormatUint(uint64(u), 10)+"&v="+strconv.FormatUint(uint64(v), 10), nil)
			body, epoch, lat, err = c.do(req)
		} else {
			ps := make([]workload.Pair, batch)
			for i := range ps {
				ps[i].U, ps[i].V = pairs.Next()
				rec.pairs = append(rec.pairs, [2]uint32{ps[i].U, ps[i].V})
			}
			body, epoch, lat, err = c.post("/distances", map[string][]workload.Pair{"pairs": ps})
		}
		rec.done, rec.lat, rec.epoch = time.Since(t0), lat, epoch
		if err == nil {
			rec.dists, err = workload.ParseDistances(body, batch > 0)
		}
		rec.ok = err == nil && len(rec.dists) == len(rec.pairs)
		c.recs = append(c.recs, rec)
	}
}

// writeLoop sends POST /updates batches of perWrite ops until ctx ends. A
// write that fails stops the loop: the update stream is only valid if
// every op before it was applied, and after a failure that is no longer
// known.
func (c *conn) writeLoop(ctx context.Context, t0 time.Time, ups *workload.Updates, perWrite int) {
	for ctx.Err() == nil {
		ops := make([]workload.Op, perWrite)
		for i := range ops {
			ops[i] = ups.Next()
		}
		_, epoch, lat, err := c.post("/updates", map[string][]workload.Op{"ops": ops})
		c.recs = append(c.recs, record{done: time.Since(t0), lat: lat, ok: err == nil, write: true, ops: ops, epoch: epoch})
		if err != nil {
			c.problem = fmt.Errorf("updates %v failed, later updates would diverge: %w", ops, err)
			return
		}
	}
}

// post sends v as a JSON body.
func (c *conn) post(path string, v any) ([]byte, uint64, time.Duration, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, 0, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}
