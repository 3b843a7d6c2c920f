// Package align provides the sequence-comparison primitives the simulator
// is built on: Levenshtein distance, maximum-likelihood edit-script
// extraction (the paper's Appendix B algorithm, in dynamic-programming
// form), and Ratcliff–Obershelp gestalt pattern matching (§3.1) with the
// matching blocks and aligned error positions used for the paper's
// "gestalt-aligned" error profiles.
//
// Distance and Script share one exact kernel (DESIGN §18): a Myers/Hyyrö
// bit-parallel distance over a pooled per-goroutine arena, in 64-row
// strips. Script keeps the pass's per-column bit vectors and traces back
// through them (Hyyrö 2004, as in Edlib), with no DP matrix.
// DistanceAtMost runs the same recurrence in a band of 64 diagonals, one
// word per column, and stops once the diagonal ending at the corner
// exceeds its bound; bounds of 64 and more fall back to Distance. The
// full-matrix and row-DP forms they replaced live on in reference_test.go
// as the differential references.
package align

import (
	"math/bits"
	"sync"
)

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
// <= k, and (k+1, false) otherwise. It is the workhorse of the clustering
// substrate, and most of its calls there are rejects. Pairs whose lengths
// differ by more than k are rejected without alignment. For k <= 63 the
// rest run the banded kernel (bandedAtMost): one word per column, which
// stops as soon as a cell on the diagonal ending at (|a|, |b|) exceeds k.
// Larger k cost one bit-parallel Distance.
func DistanceAtMost(a, b string, k int) (int, bool) {
	if k < 0 {
		return k + 1, false
	}
	if len(a)-len(b) > k || len(b)-len(a) > k {
		return k + 1, false
	}
	if k >= 64 {
		if d := Distance(a, b); d <= k {
			return d, true
		}
		return k + 1, false
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	ar := getArena()
	d := ar.bandedAtMost(a, b, k)
	putArena(ar)
	if d <= k {
		return d, true
	}
	return k + 1, false
}

// bandedAtMost is DistanceAtMost's kernel for 0 <= k <= 63 and
// 0 <= Δ = len(a) − len(b) <= k: the Myers/Hyyrö pass confined to a
// diagonal band one word wide (Ukkonen 1985; Hyyrö 2003). It returns the
// distance when that is at most k and some value above k otherwise.
//
// Write D[i][j] for the DP over rows a and columns b. A path through a
// cell on diagonal d = i − j costs at least |d| + |Δ − d|, so a path of
// cost <= k stays on the diagonals from ⌈(Δ−k)/2⌉ to ⌊(Δ+k)/2⌋: at most
// k+1 of them. The band is the 64 diagonals from lo = ⌈(Δ−k)/2⌉, which
// hold rows j+lo to j+lo+63 of column j, so the band slides down one row
// per column. Every cell outside it is treated as an upper bound: a +1
// horizontal delta enters at the top and a +1 vertical delta is shifted
// in at the bottom. Each computed cell is then the cost of some real
// path, and every cell whose optimal path stays in the band is exact.
// Rows above row 0 are virtual rows with D[i][j] = j − i that never
// match: their vertical deltas are −1, and the +1 entering at the top
// keeps row 0 at D[0][j] = j.
//
// The cut-off watches diagonal Δ, the one ending at (m, n). D never
// decreases along a diagonal, so D[m][n] <= k puts every cell of
// diagonal Δ at <= k, and such a cell's optimal path lies in the band,
// so it is computed exactly. A computed value above k on diagonal Δ
// therefore proves D[m][n] > k. The test runs every cutEvery columns and
// after the last, where the cell is (m, n).
func (ar *arena) bandedAtMost(a, b string, k int) int {
	m, n := len(a), len(b)
	lo := (m - n - k) / 2 // ⌈(Δ−k)/2⌉: Δ−k <= 0 and / truncates toward zero
	// Match masks of a, one bit per row, are stored from bit 64 on, so
	// that the window for column j+1 — rows j+lo+1 to j+lo+64, a[j+lo:]
	// — starts at bit j+lo+64 >= 32. Words below bit 64 and past row m
	// stay zero: virtual rows and rows past m never match. Mask row 0 is
	// all zero and serves every byte absent from a; the others are added
	// as a's bytes first appear.
	var sym [256]uint16
	words := m>>6 + 3
	peq := append(ar.peq[:0], make([]uint64, words)...)
	for i := 0; i < m; i++ {
		c := sym[a[i]]
		if c == 0 {
			c = uint16(len(peq) / words)
			sym[a[i]] = c
			peq = append(peq, make([]uint64, words)...)
		}
		peq[int(c)*words+(i+64)>>6] |= 1 << (i & 63)
	}
	ar.peq = peq

	// The band's vertical deltas are kept slid down a row: after column
	// j, bit r is the delta at row j+lo+1+r, bit 63 the +1 bottom delta.
	// top is D at row j+lo, the row the slide dropped. Column 0 has
	// D[i][0] = |i|: deltas −1 on rows i <= 0 (bits r < −lo), +1 below.
	mv := uint64(1)<<-lo - 1
	pv := ^mv
	top := -lo
	// diag selects bits 0..Δ−lo−1, the deltas from row j+lo down to the
	// cell on diagonal Δ.
	diag := uint64(1)<<(m-n-lo) - 1
	off := lo + 64
	for j := 0; j < n; j++ {
		s := j + off
		i := int(sym[b[j]])*words + s>>6
		eq := peq[i]>>(s&63) | peq[i+1]<<1<<(^s&63)
		// advance(eq, pv, mv, 1) with its output slid down a row, so
		// bit 63 takes the +1 bottom delta. The +1 top delta reaches only
		// the new column's bit 0, which the slide drops into top: top
		// moves one column right (+1) and one row down (that bit's
		// delta, 0, or −1 when xv bit 0 is set).
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		top += 1 - int(xv&1)
		pv, mv = mh|^(xv>>1|ph)|1<<63, ph&(xv>>1)
		if j&(cutEvery-1) == cutEvery-1 && top+bits.OnesCount64(pv&diag)-bits.OnesCount64(mv&diag) > k {
			return k + 1
		}
	}
	return top + bits.OnesCount64(pv&diag) - bits.OnesCount64(mv&diag)
}

// cutEvery is how many columns the banded kernel runs between cut-off
// tests, a power of two. A test costs about as much as a column, and a
// reject runs at most cutEvery−1 columns past the first one that could
// stop it.
const cutEvery = 8

// Similar reports whether the edit distance between a and b is at most k.
func Similar(a, b string, k int) bool {
	_, ok := DistanceAtMost(a, b, k)
	return ok
}
