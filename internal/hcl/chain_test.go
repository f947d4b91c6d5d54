package hcl

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/arena"
)

// clone returns a deep copy of g.
func (g *adj) clone() *adj {
	c := &adj{directed: g.directed, out: make([][]uint32, len(g.out))}
	for v := range g.out {
		c.out[v] = slices.Clone(g.out[v])
	}
	c.in = c.out
	if g.directed {
		c.in = make([][]uint32, len(g.in))
		for v := range g.in {
			c.in[v] = slices.Clone(g.in[v])
		}
	}
	return c
}

// saved returns the stream c writes.
func saved(t *testing.T, c *Core) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForkChainKeepsAncestors replays random insert, delete and
// EnsureVertex streams down a chain of forks, the way a Store publishes
// epochs, starting from a mapped labelling where the host can map one.
// Some generations are discarded after their writes and forked again from
// the same parent, as a Store does after a failed append. After every
// write of a child, each ancestor still saves the bytes it saved when it
// was frozen, which are those of a fresh construction over its own graph.
func TestForkChainKeepsAncestors(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Two full chunks and a partial third, which the added vertices
		// fill past a chunk boundary.
		n := 2*packChunkLen + packChunkLen - 12
		g := newAdj(n, false)
		for v := 1; v < n; v++ {
			g.add(uint32(rng.Intn(v)), uint32(v)) // a random tree keeps it connected
		}
		for range n {
			a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if a != b && !g.has(a, b) && !g.has(b, a) {
				g.add(a, b)
			}
		}
		lms := []uint32{0, 1, 2, uint32(n / 2), uint32(n - 1)}
		root := g.build(t, lms)
		if arena.Supported() {
			path := filepath.Join(t.TempDir(), "labels")
			if err := os.WriteFile(path, saved(t, root), 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := arena.MapFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := MapCore(m, 0, root.kind, n)
			if err != nil {
				t.Fatal(err)
			}
			root = &mapped
		}

		type frozen struct {
			c    *Core
			want []byte
		}
		chain := []frozen{{root, saved(t, g.build(t, lms))}}
		if got := saved(t, root); !bytes.Equal(got, chain[0].want) {
			t.Fatalf("seed %d: the root does not save as a fresh build", seed)
		}
		check := func(gen, op int) {
			t.Helper()
			for i, a := range chain {
				if !bytes.Equal(saved(t, a.c), a.want) {
					t.Fatalf("seed %d generation %d op %d: ancestor %d changed", seed, gen, op, i)
				}
			}
		}
		for gen := 0; gen < 16; gen++ {
			tip := chain[len(chain)-1].c
			cg := g.clone()
			child := tip.Fork()
			for op := range 1 + rng.Intn(4) {
				switch k := rng.Intn(5); {
				case k == 0:
					v := uint32(len(cg.out))
					cg.out = append(cg.out, nil)
					cg.in = cg.out
					child.EnsureVertex(v)
					insert(t, &child, cg, uint32(rng.Intn(int(v))), v)
				case k <= 2:
					a, b := uint32(rng.Intn(len(cg.out))), uint32(rng.Intn(len(cg.out)))
					if a != b && !cg.has(a, b) && !cg.has(b, a) {
						insert(t, &child, cg, a, b)
					}
				default:
					a := uint32(rng.Intn(len(cg.out)))
					if len(cg.out[a]) > 0 {
						remove(&child, cg, a, cg.out[a][rng.Intn(len(cg.out[a]))])
					}
				}
				check(gen, op)
			}
			if err := child.EqualLabels(cg.build(t, lms)); err != nil {
				t.Fatalf("seed %d generation %d: %v", seed, gen, err)
			}
			if rng.Intn(4) == 0 {
				continue // discarded: the next generation forks tip again
			}
			chain = append(chain, frozen{&child, saved(t, cg.build(t, lms))})
			g = cg
		}
	}
}
