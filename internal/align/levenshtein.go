// Package align provides the sequence-comparison primitives the simulator
// is built on: Levenshtein distance, maximum-likelihood edit-script
// extraction (the paper's Appendix B algorithm, in dynamic-programming
// form), and Ratcliff–Obershelp gestalt pattern matching (§3.1) with the
// matching blocks and aligned error positions used for the paper's
// "gestalt-aligned" error profiles.
//
// Distance, DistanceAtMost and Script share one exact kernel (DESIGN §18):
// a Myers/Hyyrö bit-parallel distance, and for Script a DP band of
// half-width d filled from a pooled per-goroutine arena. The full-matrix
// and row-DP forms they replaced live on in reference_test.go as the
// differential references.
package align

import "sync"

// arena is the reusable working memory of one kernel call: the
// bit-parallel match masks and strip-boundary deltas, and Script's DP
// cells. Arenas are pooled, so a goroutine reuses one across calls and
// steady-state calls allocate nothing.
type arena struct {
	peq  []uint64
	h    []uint8
	cost []int32
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// maxPooledCells caps the DP storage an arena keeps when it returns to the
// pool, so one rare long alignment does not pin its matrix for good.
const maxPooledCells = 1 << 20

func getArena() *arena { return arenas.Get().(*arena) }

func putArena(ar *arena) {
	if cap(ar.cost) > maxPooledCells {
		ar.cost = nil
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
// Myers/Hyyrö bit-parallel algorithm: the shorter string is packed into
// 64-row strips (a 110-nt strand fits in two) and each column of a strip
// advances with a handful of word operations.
func (ar *arena) distance(a, b string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
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
		for j := 0; j < len(h); j++ {
			eq, hp, hn := eqs[sym[b[j]]], uint64(h[j]&1), uint64(h[j]>>1)
			// Folding hn into eq before xv only sets bit 0 of xv, and when
			// hn is set bit 0 of the new deltas is forced by the shifted-in
			// flags (pv from mh, mv cleared by ph).
			eq |= hn
			xv := eq | mv
			xh := (((eq & pv) + pv) ^ pv) | eq
			ph := mv | ^(xh | pv)
			mh := pv & xh
			h[j] = uint8(ph>>bit&1 | mh>>bit&1<<1)
			ph = ph<<1 | hp
			mh = mh<<1 | hn
			pv, mv = mh|^(xv|ph), ph&xv
		}
	}
	// h now holds row m's horizontal deltas: D[m][n] = m + their sum.
	d := m
	for _, x := range h {
		d += int(x&1) - int(x>>1)
	}
	return d
}

// Distance returns the Levenshtein (unit-cost edit) distance between a and
// b, in O(|a|·|b|/64) word operations.
func Distance(a, b string) int {
	ar := getArena()
	d := ar.distance(a, b)
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
	ar := getArena()
	d := ar.distance(a, b)
	putArena(ar)
	if d > k {
		return k + 1, false
	}
	return d, true
}

// Similar reports whether the edit distance between a and b is at most k.
func Similar(a, b string, k int) bool {
	_, ok := DistanceAtMost(a, b, k)
	return ok
}
