package main

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	dynhl "repro"
)

// newTestStore serves a labelling of an 8-cycle with the chord (0,4).
func newTestStore(t *testing.T) *dynhl.Store {
	t.Helper()
	g := dynhl.NewGraph(8)
	for i := 0; i < 8; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 8; i++ {
		g.MustAddEdge(i, (i+1)%8)
	}
	g.MustAddEdge(0, 4)
	x, err := dynhl.Build(g, dynhl.Options{Landmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return dynhl.NewStore(x)
}

func run(t *testing.T, s *dynhl.Store, line string) string {
	t.Helper()
	var out bytes.Buffer
	if quit := execute(&out, s, nil, strings.Fields(line)); quit {
		t.Fatalf("%q quit the REPL", line)
	}
	return out.String()
}

func saved(t *testing.T, s *dynhl.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// numbers returns the submatches of re in out as integers, failing when
// out does not match.
func numbers(t *testing.T, re, out string) []int {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output %q does not match %s", out, re)
	}
	ns := make([]int, len(m)-1)
	for i, s := range m[1:] {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		ns[i] = n
	}
	return ns
}

// TestUpdateCommandsMatchApply runs every single-update command and the
// apply batch of the same op on fresh stores, beside a direct ApplyCtx of
// the op: all three must reach byte-identical labellings at the same
// epoch, and each command must report the numbers of the op's summary in
// its own line.
func TestUpdateCommandsMatchApply(t *testing.T) {
	const (
		edge   = `^(?:inserted|deleted) \((\d+),(\d+)\): (\d+) affected, \+(\d+)/-(\d+) entries  \[.+\]\n$`
		vertex = `^inserted vertex (\d+) \((\d+) neighbours, (\d+) affected\)\n$`
		isol   = `^isolated vertex (\d+): \+(\d+)/-(\d+) entries  \[.+\]\n$`
		batch  = `^applied (\d+) ops as epoch (\d+): \+(\d+)/-(\d+) entries  \[.+\]\n`
		newV   = `(?m)^  op 0 inserted vertex (\d+)$`
	)
	cases := []struct {
		cmd string
		op  dynhl.Op
	}{
		{"add 2 6", dynhl.InsertEdgeOp(2, 6, 0)},
		{"add 1 5 1", dynhl.InsertEdgeOp(1, 5, 1)},
		{"addv 2,6", dynhl.InsertVertexOp(dynhl.Arcs(2, 6)...)},
		{"addv 3", dynhl.InsertVertexOp(dynhl.Arcs(3)...)},
		{"de 0 4", dynhl.DeleteEdgeOp(0, 4)},
		{"del 2 3", dynhl.DeleteEdgeOp(2, 3)},
		{"dv 6", dynhl.DeleteVertexOp(6)},
		{"delv 1", dynhl.DeleteVertexOp(1)},
	}
	for _, tc := range cases {
		t.Run(tc.cmd, func(t *testing.T) {
			single, applied, ref := newTestStore(t), newTestStore(t), newTestStore(t)
			res, err := ref.ApplyCtx(context.Background(), []dynhl.Op{tc.op})
			if err != nil {
				t.Fatal(err)
			}
			want := res.Summaries[0]

			out := run(t, single, tc.cmd)
			switch tc.op.Kind {
			case dynhl.OpInsertEdge, dynhl.OpDeleteEdge:
				got := numbers(t, edge, out)
				if exp := []int{int(tc.op.U), int(tc.op.V), want.Affected, want.EntriesAdded, want.EntriesRemoved}; fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Errorf("%q reported %v, want %v", tc.cmd, got, exp)
				}
			case dynhl.OpInsertVertex:
				got := numbers(t, vertex, out)
				if exp := []int{int(*want.NewVertex), len(tc.op.Arcs), want.Affected}; fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Errorf("%q reported %v, want %v", tc.cmd, got, exp)
				}
			case dynhl.OpDeleteVertex:
				got := numbers(t, isol, out)
				if exp := []int{int(tc.op.V), want.EntriesAdded, want.EntriesRemoved}; fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Errorf("%q reported %v, want %v", tc.cmd, got, exp)
				}
			}

			out = run(t, applied, "apply "+tc.cmd)
			got := numbers(t, batch, out)
			if exp := []int{1, int(res.Epoch), want.EntriesAdded, want.EntriesRemoved}; fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Errorf("apply %q reported %v, want %v", tc.cmd, got, exp)
			}
			if want.NewVertex != nil {
				if got := numbers(t, newV, out); got[0] != int(*want.NewVertex) {
					t.Errorf("apply %q reported vertex %d, want %d", tc.cmd, got[0], *want.NewVertex)
				}
			}

			for name, s := range map[string]*dynhl.Store{"single": single, "apply": applied} {
				if s.Epoch() != res.Epoch {
					t.Errorf("%s: epoch %d, want %d", name, s.Epoch(), res.Epoch)
				}
				if !bytes.Equal(saved(t, s), saved(t, ref)) {
					t.Errorf("%s: labelling differs from ApplyCtx's", name)
				}
			}
			if out := run(t, single, "epoch"); out != fmt.Sprintf("epoch %d\n", res.Epoch) {
				t.Errorf("epoch command printed %q", out)
			}
		})
	}
}

// TestUpdateCommandErrors checks that a malformed or failing update,
// single or batched, prints its error and publishes nothing.
func TestUpdateCommandErrors(t *testing.T) {
	cases := []struct{ line, want string }{
		{"add 1", "error: usage add <u> <v> [w]\n"},
		{"add 1 2 3 4", "error: usage add <u> <v> [w]\n"},
		{"addv", "error: usage addv n1,n2,...\n"},
		{"de 1", "error: usage de <u> <v>\n"},
		{"del 1 2 3", "error: usage de <u> <v>\n"},
		{"dv", "error: usage dv <v>\n"},
		{"delv 1 2", "error: usage dv <v>\n"},
		{"add x 2", `error: strconv.ParseUint: parsing "x": invalid syntax` + "\n"},
		{"apply", "error: usage: apply <op> [; <op> ...] with ops add <u> <v> [w] | addv n1,n2,... | de <u> <v> | dv <v>\n"},
		{"apply ;", "error: empty op batch\n"},
		{"apply add 1", "error: usage add <u> <v> [w]\n"},
		{"apply add 1 5 ; q 1 2", `error: unknown op "q" (want add, addv, de or dv)` + "\n"},
		{"add 0 1", "error: dynhl: op 0 (insert_edge): hcl: insert (0,1): graph: edge already exists\n"},
		{"add 0 99", "error: dynhl: op 0 (insert_edge): hcl: insert (0,99): graph: vertex does not exist\n"},
		{"addv 2,99", "error: dynhl: op 0 (insert_vertex): hcl: insert vertex: neighbour 99: graph: vertex does not exist\n"},
		{"de 2 6", "error: dynhl: op 0 (delete_edge): hcl: delete (2,6): graph: edge does not exist\n"},
		{"de 0 99", "error: dynhl: op 0 (delete_edge): hcl: delete (0,99): graph: vertex does not exist\n"},
		{"dv 99", "error: dynhl: op 0 (delete_vertex): hcl: delete vertex 99: graph: vertex does not exist\n"},
		{"dv 0", "error: dynhl: op 0 (delete_vertex): hcl: delete vertex 0: cannot delete a landmark\n"},
		{"apply add 1 5 ; de 0 99", "error (batch discarded, epoch unchanged): dynhl: op 1 (delete_edge): hcl: delete (0,99): graph: vertex does not exist\n"},
		{"apply add 1 5 ; add 5 1", "error (batch discarded, epoch unchanged): dynhl: op 1 (insert_edge): hcl: insert (5,1): graph: edge already exists\n"},
	}
	for _, tc := range cases {
		t.Run(tc.line, func(t *testing.T) {
			s := newTestStore(t)
			before := saved(t, s)
			if out := run(t, s, tc.line); out != tc.want {
				t.Errorf("%q printed %q, want %q", tc.line, out, tc.want)
			}
			if s.Epoch() != 0 || !bytes.Equal(saved(t, s), before) {
				t.Errorf("%q changed the store: epoch %d", tc.line, s.Epoch())
			}
		})
	}
}
