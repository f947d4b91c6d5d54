package repl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// replSample extracts one series' value from an exposition.
func replSample(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		name, raw, ok := strings.Cut(line, " ")
		if ok && name == series {
			var v float64
			if _, err := fmt.Sscanf(raw, "%g", &v); err != nil {
				t.Fatalf("series %s: bad value %q: %v", series, raw, err)
			}
			return v
		}
	}
	t.Fatalf("series %s missing from exposition:\n%s", series, text)
	return 0
}

// TestReplicationMetricsExposition streams a few epochs to a follower and
// checks both roles' registries ride along on their stores' registry
// lists, with role labels keeping the series apart.
func TestReplicationMetricsExposition(t *testing.T) {
	l, d, mirror := startLeader(t, 40, 3)
	f := startFollower(t, l)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3; i++ {
		if _, err := d.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
			t.Fatal(err)
		}
	}
	converge(t, f, d.Store().Epoch())

	// The leader counts a record as shipped after its frame is written, so
	// the follower can apply it — and converge return — first: poll.
	var leaderText string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var lb strings.Builder
		if err := obs.WriteAll(&lb, d.Store().MetricsRegistries()...); err != nil {
			t.Fatal(err)
		}
		leaderText = lb.String()
		got := replSample(t, leaderText, `dynhl_repl_shipped_records_total{role="leader"}`)
		if got >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shipped_records_total %g, want >= 3", got)
		}
	}
	if got := replSample(t, leaderText, `dynhl_repl_followers{role="leader"}`); got != 1 {
		t.Errorf("followers %g, want 1", got)
	}
	if got := replSample(t, leaderText, `dynhl_repl_bootstraps_total{role="leader"}`); got != 1 {
		t.Errorf("bootstraps_total %g, want 1", got)
	}
	// The leader's store carries WAL series too: one registry list, every
	// attached layer present.
	if got := replSample(t, leaderText, "dynhl_wal_records_total"); got < 3 {
		t.Errorf("leader exposition missing WAL series: records_total %g", got)
	}

	var fb strings.Builder
	if err := obs.WriteAll(&fb, f.Store().MetricsRegistries()...); err != nil {
		t.Fatal(err)
	}
	followerText := fb.String()
	if got := replSample(t, followerText, `dynhl_repl_ready{role="follower"}`); got != 1 {
		t.Errorf("ready %g, want 1", got)
	}
	if got := replSample(t, followerText, `dynhl_repl_connected{role="follower"}`); got != 1 {
		t.Errorf("connected %g, want 1", got)
	}
	if got := replSample(t, followerText, `dynhl_repl_lag_epochs{role="follower"}`); got != 0 {
		t.Errorf("lag_epochs %g after converge, want 0", got)
	}
	// At least the bootstrap ack must have landed; the per-batch acks can
	// be cut short by a link race (the session just re-forms and resumes).
	if got := replSample(t, followerText, `dynhl_repl_acks_total{role="follower"}`); got < 1 {
		t.Errorf("acks_total %g, want >= 1", got)
	}

	// A link bounce shows up as a reconnect once the session re-forms.
	f.bounce()
	for i := 0; f.reconnects.Load() == 0 && i < 400; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if f.reconnects.Load() == 0 {
		t.Fatal("reconnect never counted after a link bounce")
	}
	var fb2 strings.Builder
	if err := obs.WriteAll(&fb2, f.Store().MetricsRegistries()...); err != nil {
		t.Fatal(err)
	}
	if got := replSample(t, fb2.String(), `dynhl_repl_reconnects_total{role="follower"}`); got < 1 {
		t.Errorf("reconnects_total %g, want >= 1", got)
	}
}
