package stat

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{99, 0.9, 0}, {100, 0.9, 90}, {1000, 0.9, 900},
		{19, 0.5, 0}, {20, 0.5, 10}, {21, 0.5, 11},
		{0, 0.5, 0}, {1000, 0.99, 990}, {999, 0.99, 0},
	} {
		got, err := Percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d: got %v, want a refusal", c.p*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d: got %v, %v; want %v", c.p*100, c.n, got, err, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the values of Python's
// statistics.quantiles(xs, n=4), which judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(9), 2.5, 5, 7.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7, 3}, 2, 5, 8}, // the exclusive method extrapolates
	} {
		q1, m, q3 := Quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
