package graph

import "fmt"

// Rows lays out the adjacency lists that AddEdge calls for edge(0), …,
// edge(m-1) in order would build over n vertices, in two passes over the
// edges and one allocation for all lists, as the compressed rows off, all:
// v's list is all[off[v]:off[v+1]], the input of cow.FromCSR. Edge (u,v)
// appends v to u's list and, when both, u to v's. A list keeps the first
// occurrence of each neighbour, so a repeated edge is dropped; with strict
// it is an ErrEdgeExists instead. An endpoint out of range is an
// ErrVertexUnknown, a self-loop an ErrSelfLoop. With weights w, edge i
// weighs w[i], and Rows also returns every kept entry's weight, wts[j]
// the weight of all[j]. Rows returns the number of distinct edges.
func Rows(n, m int, edge func(i int) (u, v uint32), w []Dist, both, strict bool) (off, all []uint32, wts []Dist, edges int, err error) {
	off = make([]uint32, n+2) // off[v+2] counts v's list, then off[v+1] ends it
	for i := 0; i < m; i++ {
		u, v := edge(i)
		if int(u) >= n || int(v) >= n {
			return nil, nil, nil, 0, fmt.Errorf("%w: edge (%d,%d) with %d vertices", ErrVertexUnknown, u, v, n)
		}
		if u == v {
			return nil, nil, nil, 0, fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
		}
		off[u+2]++
		if both {
			off[v+2]++
		}
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	// off[v+1] now starts v's list; each placed neighbour moves it on, so
	// that it ends the list once every edge is placed.
	end := off[1:]
	all = make([]uint32, off[n+1])
	if w != nil {
		wts = make([]Dist, len(all))
	}
	switch {
	case both && w == nil:
		for i := 0; i < m; i++ {
			u, v := edge(i)
			all[end[u]], all[end[v]] = v, u
			end[u]++
			end[v]++
		}
	case both:
		for i := 0; i < m; i++ {
			u, v := edge(i)
			a, b := end[u], end[v]
			all[a], all[b] = v, u
			wts[a], wts[b] = w[i], w[i]
			end[u]++
			end[v]++
		}
	default:
		for i := 0; i < m; i++ {
			u, v := edge(i)
			a := end[u]
			all[a] = v
			if w != nil {
				wts[a] = w[i]
			}
			end[u]++
		}
	}
	off = off[:n+1]
	// Repeated neighbours are rare: find them first, and compact the lists
	// only when there are any.
	mark := make([]uint32, n) // mark[x] == v+1: x is already in v's list
	repeats := 0
	for v := uint32(0); int(v) < n; v++ {
		for _, x := range all[off[v]:off[v+1]] {
			if mark[x] == v+1 {
				if strict {
					return nil, nil, nil, 0, fmt.Errorf("%w: (%d,%d) listed twice", ErrEdgeExists, v, x)
				}
				repeats++
			}
			mark[x] = v + 1
		}
	}
	if repeats > 0 {
		compact(off, all, wts, mark)
		all = all[:len(all)-repeats]
		if wts != nil {
			wts = wts[:len(all)]
		}
	}
	edges = len(all)
	if both {
		edges /= 2
	}
	return off, all, wts, edges, nil
}

// compact drops every repeated neighbour from the lists off, all, keeping
// first occurrences: each list moves down over the gaps the earlier lists
// left, its weights in wts, if any, with it, and off follows.
func compact(off, all []uint32, wts []Dist, mark []uint32) {
	clear(mark)
	kept := uint32(0)
	for v := uint32(0); int(v) < len(off)-1; v++ {
		lo, hi := off[v], off[v+1]
		off[v] = kept
		for j := lo; j < hi; j++ {
			x := all[j]
			if mark[x] == v+1 {
				continue
			}
			mark[x] = v + 1
			all[kept] = x
			if wts != nil {
				wts[kept] = wts[j]
			}
			kept++
		}
	}
	off[len(off)-1] = kept
}
