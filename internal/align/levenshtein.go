// Package align provides the sequence-comparison primitives the simulator
// is built on: Levenshtein distance, maximum-likelihood edit-script
// extraction (the paper's Appendix B algorithm, in dynamic-programming
// form), and Ratcliff–Obershelp gestalt pattern matching (§3.1) with the
// matching blocks and aligned error positions used for the paper's
// "gestalt-aligned" error profiles.
//
// Distance, DistanceAtMost and Script share one exact kernel (DESIGN §18):
// a Myers/Hyyrö bit-parallel distance over a pooled per-goroutine arena.
// Script keeps the pass's per-column bit vectors and traces back through
// them (Hyyrö 2004, as in Edlib), with no DP matrix. The full-matrix and
// row-DP forms they replaced live on in reference_test.go as the
// differential references.
package align

import "sync"

// arena is the reusable working memory of one kernel call: the
// bit-parallel match masks and strip-boundary deltas, and the column
// states Script traces back through. Arenas are pooled, so a goroutine
// reuses one across calls and steady-state calls allocate nothing.
type arena struct {
	peq  []uint64
	h    []uint8
	cols []column
}

// column is one strip's state at one DP column: the vertical deltas down
// the strip as +1 (pv) and −1 (mv) bit flags, bit r holding
// D[64s+r+1][j] − D[64s+r][j], and top = D[64s][j], the cost of the row
// just above the strip. Any cell of the strip is top plus a masked
// popcount difference.
type column struct {
	pv, mv uint64
	top    int32
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// maxPooledColumns caps the column states an arena keeps when it returns
// to the pool, so one rare long alignment does not pin its vectors for
// good. A 110-nt pair needs 2 strips × 111 columns.
const maxPooledColumns = 1 << 16

func getArena() *arena { return arenas.Get().(*arena) }

func putArena(ar *arena) {
	if cap(ar.cols) > maxPooledColumns {
		ar.cols = nil
	}
	arenas.Put(ar)
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// distance returns the Levenshtein distance between a and b by the
// Myers/Hyyrö bit-parallel algorithm: a is packed into 64-row strips (a
// 110-nt strand fits in two) and each column of a strip advances with a
// handful of word operations. With keep set it also records every strip's
// state after every column in ar.cols, strip s column j at
// s*(len(b)+1)+j, for Script's traceback.
func (ar *arena) distance(a, b string, keep bool) int {
	m, n := len(a), len(b)
	if m == 0 {
		return n
	}
	// sym maps a byte to its match-mask row; row 0 stays all zero and
	// serves every byte absent from a. Strip s's masks are
	// peq[s*rows : (s+1)*rows].
	var sym [256]uint16
	rows := 1
	for i := 0; i < m; i++ {
		if sym[a[i]] == 0 {
			sym[a[i]] = uint16(rows)
			rows++
		}
	}
	strips := (m + 63) >> 6
	ar.peq = grow(ar.peq, strips*rows)
	peq := ar.peq
	clear(peq)
	for i := 0; i < m; i++ {
		peq[i>>6*rows+int(sym[a[i]])] |= 1 << (i & 63)
	}
	if keep {
		ar.cols = grow(ar.cols, strips*(n+1))
	}

	// Each strip runs across all of b with its vertical deltas in
	// registers. h[j] carries the horizontal delta at column j from the
	// bottom row of one strip into the top of the next, as a +1 flag
	// (bit 0) and a −1 flag (bit 1); above the first strip it is row 0's
	// +1 (D[0][j] = j).
	ar.h = grow(ar.h, n)
	h := ar.h
	for j := range h {
		h[j] = 1
	}
	for s := 0; s < strips; s++ {
		eqs := peq[s*rows : (s+1)*rows]
		bit := uint(63)
		if s == strips-1 {
			bit = uint(m-1) & 63 // the last strip reports row m
		}
		pv, mv := ^uint64(0), uint64(0) // column 0: D[i][0] = i
		var ph, mh uint64
		if !keep {
			for j := range h {
				pv, mv, ph, mh = advance(eqs[sym[b[j]]], pv, mv, h[j])
				h[j] = uint8(ph>>bit&1 | mh>>bit&1<<1)
			}
			continue
		}
		// The same loop, recording each column's state.
		cols := ar.cols[s*(n+1) : (s+1)*(n+1)]
		top := int32(s << 6)
		cols[0] = column{pv, mv, top}
		for j := range h {
			top += int32(h[j]&1) - int32(h[j]>>1)
			pv, mv, ph, mh = advance(eqs[sym[b[j]]], pv, mv, h[j])
			h[j] = uint8(ph>>bit&1 | mh>>bit&1<<1)
			cols[j+1] = column{pv, mv, top}
		}
	}
	// h now holds row m's horizontal deltas: D[m][n] = m + their sum.
	d := m
	for _, x := range h {
		d += int(x&1) - int(x>>1)
	}
	return d
}

// advance moves one strip one column right: eq is the column's match
// mask, pv and mv the strip's vertical deltas in the previous column, and
// h the horizontal delta entering at the strip's top (+1 flag in bit 0,
// −1 flag in bit 1). It returns the new column's vertical deltas and the
// strip's horizontal +1 and −1 vectors, whose bit r is the delta leaving
// row r.
func advance(eq, pv, mv uint64, h uint8) (npv, nmv, ph, mh uint64) {
	hp, hn := uint64(h&1), uint64(h>>1)
	// Folding hn into eq before xv only sets bit 0 of xv, and when hn is
	// set bit 0 of the new deltas is forced by the shifted-in flags (pv
	// from mh, mv cleared by ph).
	eq |= hn
	xv := eq | mv
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph = mv | ^(xh | pv)
	mh = pv & xh
	sp, sm := ph<<1|hp, mh<<1|hn
	return sm | ^(xv | sp), sp & xv, ph, mh
}

// Distance returns the Levenshtein (unit-cost edit) distance between a and
// b, in O(|a|·|b|/64) word operations.
func Distance(a, b string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	ar := getArena()
	d := ar.distance(a, b, false)
	putArena(ar)
	return d
}

// DistanceAtMost returns the Levenshtein distance between a and b if it is
// <= k, and (k+1, false) otherwise. Pairs whose lengths differ by more than
// k are rejected without alignment; the rest cost one bit-parallel
// Distance, which makes it the workhorse of the clustering substrate.
func DistanceAtMost(a, b string, k int) (int, bool) {
	if k < 0 {
		return k + 1, false
	}
	if len(a)-len(b) > k || len(b)-len(a) > k {
		return k + 1, false
	}
	if d := Distance(a, b); d <= k {
		return d, true
	}
	return k + 1, false
}

// Similar reports whether the edit distance between a and b is at most k.
func Similar(a, b string, k int) bool {
	_, ok := DistanceAtMost(a, b, k)
	return ok
}
