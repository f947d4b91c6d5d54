package dynhl_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	dynhl "repro"
	"repro/internal/testutil"
)

// The golden repair trace pins update behaviour across refactors of the
// labelling engine: testdata/repair-trace.txt was recorded by an earlier
// release for a fixed seeded stream of edge and vertex inserts and deletes
// over all three variants. Each line holds one committed batch: the variant,
// the ops, every op's UpdateSummary and the SHA-256 of the Save bytes after
// the batch. Every repair fan-out must reproduce it exactly.

const traceFile = "repair-trace.txt"

// traceOracles builds the three labellings the trace starts from.
func traceOracles(t *testing.T, workers int) map[string]dynhl.Oracle {
	t.Helper()
	const n = 150
	opt := dynhl.Options{Landmarks: 6, RepairWorkers: workers}
	u, err := dynhl.Build(testutil.RandomConnectedGraph(n, 2*n, 61), opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	dg := dynhl.NewDigraph(n)
	wg := dynhl.NewWeightedGraph(n)
	for i := 0; i < n; i++ {
		dg.AddVertex()
		wg.AddVertex()
	}
	for e := 0; e < 3*n; e++ {
		a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if a == b {
			continue
		}
		if !dg.HasEdge(a, b) {
			dg.MustAddEdge(a, b)
		}
		if !wg.HasEdge(a, b) {
			wg.MustAddEdge(a, b, dynhl.Dist(1+rng.Intn(8)))
		}
	}
	d, err := dynhl.BuildDirected(dg, opt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dynhl.BuildWeighted(wg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]dynhl.Oracle{"undirected": u, "directed": d, "weighted": w}
}

// traceNeighbors returns the out-neighbours of v in the store's current
// graph.
func traceNeighbors(st *dynhl.Store, v uint32) []uint32 {
	switch x := st.Unwrap().(type) {
	case *dynhl.Index:
		return x.Graph().Neighbors(v)
	case *dynhl.DirectedIndex:
		return x.Graph().Out(v)
	case *dynhl.WeightedIndex:
		var out []uint32
		for _, a := range x.Graph().Neighbors(v) {
			out = append(out, a.To)
		}
		return out
	}
	panic("unknown variant")
}

// traceOp draws one random op: an edge insert (40%), an edge delete
// (30%), a vertex insert (15%) or a vertex delete (15%). It may be invalid
// (an existing edge, a landmark); the store rejects those and the caller
// draws again.
func traceOp(rng *rand.Rand, st *dynhl.Store, variant string) dynhl.Op {
	n := st.NumVertices()
	weight := func() dynhl.Dist {
		if variant == "weighted" {
			return dynhl.Dist(1 + rng.Intn(8))
		}
		return 0
	}
	switch p := rng.Intn(100); {
	case p < 40:
		return dynhl.InsertEdgeOp(uint32(rng.Intn(n)), uint32(rng.Intn(n)), weight())
	case p < 70:
		u := uint32(rng.Intn(n))
		nb := traceNeighbors(st, u)
		if len(nb) == 0 {
			return dynhl.DeleteEdgeOp(u, u)
		}
		return dynhl.DeleteEdgeOp(u, nb[rng.Intn(len(nb))])
	case p < 85:
		arcs := make([]dynhl.Arc, 1+rng.Intn(3))
		for i := range arcs {
			arcs[i] = dynhl.Arc{To: uint32(rng.Intn(n)), W: weight(), In: variant == "directed" && rng.Intn(2) == 0}
		}
		return dynhl.InsertVertexOp(arcs...)
	default:
		return dynhl.DeleteVertexOp(uint32(rng.Intn(n)))
	}
}

// repairTrace runs the seeded stream over every variant at the given repair
// fan-out and renders the trace, one line per committed batch.
func repairTrace(t *testing.T, workers int) string {
	t.Helper()
	var out strings.Builder
	oracles := traceOracles(t, workers)
	for i, name := range []string{"undirected", "directed", "weighted"} {
		st := dynhl.NewStore(oracles[name])
		rng := rand.New(rand.NewSource(int64(71 + i)))
		for step := 0; step < 60; step++ {
			size := 1
			if step%5 == 4 {
				size = 2
			}
			var ops []dynhl.Op
			var res dynhl.ApplyResult
			for {
				ops = ops[:0]
				for len(ops) < size {
					ops = append(ops, traceOp(rng, st, name))
				}
				var err error
				if res, err = st.ApplyCtx(context.Background(), ops); err == nil {
					break
				}
			}
			var saved bytes.Buffer
			if err := st.Save(&saved); err != nil {
				t.Fatal(err)
			}
			opsJSON, err := json.Marshal(ops)
			if err != nil {
				t.Fatal(err)
			}
			sums, err := json.Marshal(res.Summaries)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %d %s %s %x\n", name, res.Epoch, opsJSON, sums, sha256.Sum256(saved.Bytes()))
		}
	}
	return out.String()
}

// dropHashes strips the Save digests from a trace, for hosts whose page
// size lays streams out differently from the recording host.
func dropHashes(trace string) string {
	lines := strings.Split(trace, "\n")
	for i, l := range lines {
		if j := strings.LastIndexByte(l, ' '); j >= 0 {
			lines[i] = l[:j]
		}
	}
	return strings.Join(lines, "\n")
}

func TestGoldenRepairTrace(t *testing.T) {
	want := string(readGolden(t, traceFile))
	for _, workers := range []int{1, 4} {
		got := repairTrace(t, workers)
		if !goldenBytesComparable() {
			got, want = dropHashes(got), dropHashes(want)
		}
		if got == want {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				var g string
				if i < len(gl) {
					g = gl[i]
				}
				t.Fatalf("workers %d: trace line %d differs:\n got  %s\n want %s", workers, i+1, g, wl[i])
			}
		}
		t.Fatalf("workers %d: trace has %d lines, want %d", workers, len(gl), len(wl))
	}
}
