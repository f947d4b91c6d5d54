package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	dynhl "repro"
)

// TestBuildOracle pins the flag combinations the command-line tools accept:
// each -mode over an edge list builds its own variant, a -dataset proxy
// builds the undirected one, and every combination that would silently
// drop a flag is refused.
func TestBuildOracle(t *testing.T) {
	dir := t.TempDir()
	write := func(name, edges string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(edges), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain := write("g.txt", "0 1\n1 2\n2 3\n3 0\n1 3\n")
	weighted := write("w.txt", "0 1 2\n1 2 1\n2 3 5\n3 0 1\n1 3 4\n")
	opt := dynhl.Options{Landmarks: 2, Seed: 1}

	for _, tc := range []struct {
		name, path, mode, ds string
		want                 string
	}{
		{"undirected", plain, ModeUndirected, "", "*dynhl.Index"},
		{"default mode", plain, "", "", "*dynhl.Index"},
		{"directed", plain, ModeDirected, "", "*dynhl.DirectedIndex"},
		{"weighted", weighted, ModeWeighted, "", "*dynhl.WeightedIndex"},
		{"dataset", "", "", "Skitter", "*dynhl.Index"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := BuildOracle(tc.path, tc.mode, tc.ds, 0.0001, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", o); got != tc.want {
				t.Fatalf("BuildOracle returned %s, want %s", got, tc.want)
			}
			if err := o.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}

	for _, tc := range []struct {
		name, path, mode, ds string
	}{
		{"graph with dataset", plain, "", "Skitter"},
		{"dataset with directed mode", "", ModeDirected, "Skitter"},
		{"neither graph nor dataset", "", ModeUndirected, ""},
		{"unknown mode", plain, "bipartite", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if o, err := BuildOracle(tc.path, tc.mode, tc.ds, 0.0001, opt); err == nil {
				t.Fatalf("BuildOracle(%q, %q, %q) = %T, want an error", tc.path, tc.mode, tc.ds, o)
			}
		})
	}
}
