// Package workload owns every input the benchmark feeds hlserver: the
// pseudo-random streams, the graph generators, the pair and update streams,
// their JSON wire format, and the workload definitions themselves. It
// imports nothing from the program under test, so a change to the program
// can never change what the benchmark asks of it. It also carries the
// benchmark's own reference graph and BFS/Dijkstra, the ground truth served
// answers are checked against.
package workload

import "math/bits"

// Stream identifiers: every consumer of randomness draws from its own
// stream, derived from the run seed, so adding draws to one stream never
// shifts another.
const (
	StreamGraph   uint64 = 1
	StreamWeights uint64 = 2
	StreamOps     uint64 = 3
	StreamOpW     uint64 = 4
	StreamPrep    uint64 = 5
	// StreamPairs + c is the pair stream of connection c.
	StreamPairs uint64 = 16
)

// Rand is a splitmix64 generator. It is implemented here rather than taken
// from math/rand so the inputs stay byte-identical across Go releases.
type Rand struct{ s uint64 }

// NewRand returns the generator of one stream of one seed.
func NewRand(seed int64, stream uint64) *Rand {
	return &Rand{s: mix(uint64(seed)) ^ mix(stream*0x9e3779b97f4a7c15+0x632be59bd9b4e019)}
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// Intn returns a uniform integer in [0, n); n must be positive.
func (r *Rand) Intn(n int) int {
	// Lemire's multiply-shift with rejection: unbiased for every n.
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
