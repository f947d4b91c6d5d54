package dynhl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// BenchmarkQueryBatchCrossover compares a plain serial loop with
// QueryBatch across sizes around the serialBatchMax threshold
// (2·batchChunk). Up to the threshold QueryBatch stays serial, so the two
// should tie; beyond it QueryBatch fans out and large batches win by
// roughly the core count.
func BenchmarkQueryBatchCrossover(b *testing.B) {
	g := testutil.RandomConnectedGraph(2000, 6000, 19)
	idx, err := Build(g, Options{Landmarks: 10})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	all := make([]Pair, 1<<12)
	for i := range all {
		all[i] = Pair{U: uint32(rng.Intn(2000)), V: uint32(rng.Intn(2000))}
	}
	var sink Dist
	for _, size := range []int{batchChunk, serialBatchMax, 2 * serialBatchMax, 8 * serialBatchMax, 32 * serialBatchMax} {
		pairs := all[:size]
		b.Run(fmt.Sprintf("serial/size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					sink ^= idx.Query(p.U, p.V)
				}
			}
		})
		b.Run(fmt.Sprintf("batch/size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink ^= idx.QueryBatch(pairs)[0]
			}
		})
	}
	benchCrossoverSink = sink
}

var benchCrossoverSink Dist
