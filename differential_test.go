package dynhl

import (
	"math/rand"
	"testing"

	"repro/internal/exper"
	"repro/internal/fulldyn"
	"repro/internal/hcl"
	"repro/internal/landmark"
	"repro/internal/pll"
	"repro/internal/testutil"
)

// TestDifferentialThreeOracles drives the same insertion stream through the
// three independently-implemented distance oracles — IncHL+, IncFD and
// IncPLL — and requires all of them to agree with each other and with BFS
// on every query. Three implementations sharing no query or update code
// agreeing on random workloads is the strongest cross-check in the suite.
func TestDifferentialThreeOracles(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		base := testutil.RandomGraph(60, 110, 500+seed)
		lm := landmark.ByDegree(base, 5)

		gHL := base.Clone()
		idxHL, err := hcl.Build(gHL, lm, 1)
		if err != nil {
			t.Fatal(err)
		}

		gFD := base.Clone()
		idxFD, err := fulldyn.Build(gFD, lm)
		if err != nil {
			t.Fatal(err)
		}

		gPLL := base.Clone()
		idxPLL := pll.Build(gPLL)

		inserts := exper.SampleInsertions(base, 25, seed*11+3)
		for i, e := range inserts {
			if _, err := idxHL.InsertEdge(e[0], e[1], 1); err != nil {
				t.Fatal(err)
			}
			if err := idxFD.InsertEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			if err := idxPLL.InsertEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			if i%5 != 4 {
				continue
			}
			oracle := testutil.AllPairsOracle(gHL)
			for u := uint32(0); u < 60; u++ {
				for v := uint32(0); v < 60; v++ {
					want := oracle[u][v]
					if got := idxHL.Query(u, v); got != want {
						t.Fatalf("seed %d step %d: IncHL+(%d,%d)=%d want %d", seed, i, u, v, got, want)
					}
					if got := idxFD.Query(u, v); got != want {
						t.Fatalf("seed %d step %d: IncFD(%d,%d)=%d want %d", seed, i, u, v, got, want)
					}
					if got := idxPLL.Query(u, v); got != want {
						t.Fatalf("seed %d step %d: IncPLL(%d,%d)=%d want %d", seed, i, u, v, got, want)
					}
				}
			}
		}
	}
}

// TestDifferentialFullyDynamic drives the same mixed insert/delete stream
// through IncHL+/DecHL and the fully dynamic IncFD baseline — the system
// the paper compares against, reproduced here complete with its deletion
// path — and requires both to agree with the all-pairs BFS oracle on every
// query, including Inf for pairs the deletions disconnected. IncPLL is
// append-only and sits this one out.
func TestDifferentialFullyDynamic(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed*19 + 7))
		base := testutil.RandomGraph(55, 100, 700+seed)
		lm := landmark.ByDegree(base, 5)

		gHL := base.Clone()
		idxHL, err := hcl.Build(gHL, lm, 1)
		if err != nil {
			t.Fatal(err)
		}

		gFD := base.Clone()
		idxFD, err := fulldyn.Build(gFD, lm)
		if err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 60; step++ {
			u := uint32(rng.Intn(55))
			v := uint32(rng.Intn(55))
			if u == v {
				continue
			}
			if gHL.HasEdge(u, v) {
				if _, err := idxHL.DeleteEdge(u, v); err != nil {
					t.Fatalf("seed %d step %d: DecHL delete: %v", seed, step, err)
				}
				if err := idxFD.DeleteEdge(u, v); err != nil {
					t.Fatalf("seed %d step %d: IncFD delete: %v", seed, step, err)
				}
			} else {
				if _, err := idxHL.InsertEdge(u, v, 1); err != nil {
					t.Fatalf("seed %d step %d: IncHL+ insert: %v", seed, step, err)
				}
				if err := idxFD.InsertEdge(u, v); err != nil {
					t.Fatalf("seed %d step %d: IncFD insert: %v", seed, step, err)
				}
			}
			if step%6 != 5 {
				continue
			}
			oracle := testutil.AllPairsOracle(gHL)
			for a := uint32(0); a < 55; a++ {
				for b := uint32(0); b < 55; b++ {
					want := oracle[a][b]
					if got := idxHL.Query(a, b); got != want {
						t.Fatalf("seed %d step %d: IncHL+(%d,%d)=%d want %d", seed, step, a, b, got, want)
					}
					if got := idxFD.Query(a, b); got != want {
						t.Fatalf("seed %d step %d: IncFD(%d,%d)=%d want %d", seed, step, a, b, got, want)
					}
				}
			}
		}
		if err := idxHL.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := idxFD.VerifyTrees(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDifferentialUpperBounds pins the relationship between the two
// landmark upper bounds: IncFD's full-tree bound can never be worse than
// IncHL+'s label bound is exact-or-above, and both dominate the true
// distance.
func TestDifferentialUpperBounds(t *testing.T) {
	g := testutil.RandomConnectedGraph(50, 90, 77)
	lm := landmark.ByDegree(g, 5)
	idxHL, err := hcl.Build(g, lm, 1)
	if err != nil {
		t.Fatal(err)
	}
	idxFD, err := fulldyn.Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	oracle := testutil.AllPairsOracle(g)
	for u := uint32(0); u < 50; u++ {
		for v := uint32(0); v < 50; v++ {
			d := oracle[u][v]
			hb := idxHL.UpperBound(u, v)
			fb := idxFD.UpperBound(u, v)
			if hb < d || fb < d {
				t.Fatalf("upper bound below true distance at (%d,%d): HL %d FD %d true %d", u, v, hb, fb, d)
			}
			// Both bounds route through landmarks; HL's minimal labels must
			// not lose exactness relative to FD's complete trees.
			// HL's bound dominates FD's: for the landmark r achieving FD's
			// d(u,r)+d(r,v), decomposing both legs through u's and v's best
			// entries and the highway triangle inequality gives a pair term
			// no larger, so hb ≤ fb always.
			if hb > fb {
				t.Fatalf("HL bound %d above FD bound %d at (%d,%d)", hb, fb, u, v)
			}
		}
	}
}
