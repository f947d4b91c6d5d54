package graph

import (
	"fmt"

	"repro/internal/cow"
)

// Rows lays out the adjacency lists that AddEdge calls for edge(0), …,
// edge(m-1) in order would build over n vertices, in two passes over the
// edges and one allocation for all lists. Edge (u,v) appends v to u's list
// and, when both, u to v's. A list keeps the first occurrence of each
// neighbour, so a repeated edge is dropped; with strict it is an
// ErrEdgeExists instead. An endpoint out of range is an ErrVertexUnknown,
// a self-loop an ErrSelfLoop. With weights w, edge i weighs w[i], and Rows
// also returns every kept entry's weight, in list order: a list's weights
// follow the previous list's in wts. Rows returns the number of distinct
// edges. Every list's capacity is its length, so a later append copies
// the list out instead of writing into the next one.
func Rows(n, m int, edge func(i int) (u, v uint32), w []Dist, both, strict bool) (lists cow.Table[uint32], wts []Dist, edges int, err error) {
	end := make([]uint32, n+1) // end[v+1] counts, then ends, v's list
	for i := 0; i < m; i++ {
		u, v := edge(i)
		if int(u) >= n || int(v) >= n {
			return lists, nil, 0, fmt.Errorf("%w: edge (%d,%d) with %d vertices", ErrVertexUnknown, u, v, n)
		}
		if u == v {
			return lists, nil, 0, fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
		}
		end[u+1]++
		if both {
			end[v+1]++
		}
	}
	for v := 1; v <= n; v++ {
		end[v] += end[v-1]
	}
	all := make([]uint32, end[n])
	if w != nil {
		wts = make([]Dist, end[n])
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
	// end[v] now ends v's list. Repeated neighbours are rare: find them
	// first, and compact the lists only when there are any.
	lists = cow.Make[uint32](n)
	mark := make([]uint32, n) // mark[x] == v+1: x is already in v's list
	repeats, start := 0, uint32(0)
	for v := uint32(0); int(v) < n; v++ {
		l := all[start:end[v]:end[v]]
		start = end[v]
		for _, x := range l {
			if mark[x] == v+1 {
				if strict {
					return cow.Table[uint32]{}, nil, 0, fmt.Errorf("%w: (%d,%d) listed twice", ErrEdgeExists, v, x)
				}
				repeats++
			}
			mark[x] = v + 1
		}
		if len(l) > 0 {
			*lists.Mut(v) = l
		}
	}
	if repeats > 0 {
		compact(lists, all, wts, mark)
		all = all[:len(all)-repeats]
		if wts != nil {
			wts = wts[:len(all)]
		}
	}
	edges = len(all)
	if both {
		edges /= 2
	}
	return lists, wts, edges, nil
}

// compact drops every repeated neighbour from the lists, which tile all
// in vertex order, keeping first occurrences: each list moves down over
// the gaps the earlier lists left, its weights in wts, if any, with it.
func compact(lists cow.Table[uint32], all []uint32, wts []Dist, mark []uint32) {
	clear(mark)
	kept, start := 0, 0
	for v := uint32(0); int(v) < lists.Len(); v++ {
		l := lists.Row(v)
		lo := kept
		for j, x := range l {
			if mark[x] == v+1 {
				continue
			}
			mark[x] = v + 1
			all[kept] = x
			if wts != nil {
				wts[kept] = wts[start+j]
			}
			kept++
		}
		start += len(l)
		if kept > lo {
			*lists.Mut(v) = all[lo:kept:kept]
		}
	}
}
