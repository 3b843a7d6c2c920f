package align

import (
	"fmt"

	"dnastore/internal/rng"
)

// OpKind classifies one step of an edit script transforming a reference
// strand into a noisy read.
type OpKind uint8

const (
	// Equal copies one reference base unchanged.
	Equal OpKind = iota
	// Sub replaces one reference base with a different read base.
	Sub
	// Del drops one reference base from the read.
	Del
	// Ins emits one extra read base not present in the reference.
	Ins
	numOpKinds
)

// String returns the short name used in histograms and tables.
func (k OpKind) String() string {
	switch k {
	case Equal:
		return "eq"
	case Sub:
		return "sub"
	case Del:
		return "del"
	case Ins:
		return "ins"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one step of an edit script. The script direction is reference →
// read: Del consumes a reference base, Ins produces a read base, Equal and
// Sub consume one of each.
type Op struct {
	// Kind is the operation type.
	Kind OpKind
	// RefPos is the 0-based reference position the operation applies to.
	// For Ins it is the reference position *before which* the read base is
	// inserted (== len(ref) for an append at the end).
	RefPos int
	// ReadPos is the 0-based read position produced or, for Del, the read
	// position where the deleted base would have appeared.
	ReadPos int
	// RefBase is the consumed reference base letter; 0 for Ins.
	RefBase byte
	// ReadBase is the produced read base letter; 0 for Del.
	ReadBase byte
}

// ScriptOptions control edit-script extraction.
type ScriptOptions struct {
	// Randomize selects the paper's Appendix B behaviour: when several edit
	// scripts achieve the minimum distance, tie-breaks during traceback are
	// chosen uniformly at random (requires RNG). When false, ties break
	// deterministically in the order Equal/Sub > Del > Ins, which biases
	// toward contiguous deletions and makes profiling reproducible.
	Randomize bool
	// RNG supplies randomness when Randomize is set.
	RNG *rng.RNG
}

// Script returns a minimum-cost edit script transforming ref into read.
// The number of non-Equal ops equals Distance(ref, read). Among equally
// minimal scripts, the tie-break policy in opts picks one; the zero options
// value is the deterministic policy.
//
// The DP is filled only on the Ukkonen band |i−j| <= d, where d is the
// bit-parallel distance. Every cell on a minimum-cost path lies in that
// band and keeps its full-matrix value, and every cell off it compares
// higher than the current cell, so the traceback sees exactly the
// full-matrix tie candidates: the same ops, and under Randomize the same
// RNG draws (DESIGN §18).
func Script(ref, read string, opts ScriptOptions) []Op {
	ar := getArena()
	defer putArena(ar)
	m, n := len(ref), len(read)
	// d >= |m−n|, so the band of half-width d always holds (m, n).
	w := ar.distance(ref, read)
	// Cell (i, j) lives at cost[i*stride+off+j].
	stride, off := 2*w+1, w
	if stride >= n+1 {
		// The band is as wide as a row: fill the plain matrix.
		stride, off = n+1, 0
		ar.cost = grow(ar.cost, (m+1)*stride)
		fillFull(ar.cost, ref, read)
	} else {
		ar.cost = grow(ar.cost, (m+1)*(stride+1))
		fillBand(ar.cost, ref, read, w)
	}
	cost := ar.cost
	idx := func(i, j int) int { return i*stride + off + j }

	// Traceback from (m, n) to (0, 0), collecting ops in reverse.
	// A script has one op per reference base plus one per insertion, and
	// there are at most d insertions.
	ops := make([]Op, 0, m+w)
	i, j := m, n
	var choice [3]OpKind // candidate buffer reused per step
	for i > 0 || j > 0 {
		cur := cost[idx(i, j)]
		nc := 0
		// Diagonal: Equal or Sub.
		if i > 0 && j > 0 {
			c := int32(1)
			if ref[i-1] == read[j-1] {
				c = 0
			}
			if cost[idx(i-1, j-1)]+c == cur {
				if c == 0 {
					choice[nc] = Equal
				} else {
					choice[nc] = Sub
				}
				nc++
			}
		}
		// Up: deletion of ref base.
		if i > 0 && cost[idx(i-1, j)]+1 == cur {
			choice[nc] = Del
			nc++
		}
		// Left: insertion of read base.
		if j > 0 && cost[idx(i, j-1)]+1 == cur {
			choice[nc] = Ins
			nc++
		}
		if nc == 0 {
			panic("align: inconsistent DP matrix") // unreachable
		}
		pick := 0
		if opts.Randomize && nc > 1 {
			if opts.RNG == nil {
				panic("align: Randomize requires an RNG")
			}
			pick = opts.RNG.Intn(nc)
		}
		switch choice[pick] {
		case Equal:
			ops = append(ops, Op{Kind: Equal, RefPos: i - 1, ReadPos: j - 1, RefBase: ref[i-1], ReadBase: read[j-1]})
			i, j = i-1, j-1
		case Sub:
			ops = append(ops, Op{Kind: Sub, RefPos: i - 1, ReadPos: j - 1, RefBase: ref[i-1], ReadBase: read[j-1]})
			i, j = i-1, j-1
		case Del:
			ops = append(ops, Op{Kind: Del, RefPos: i - 1, ReadPos: j, RefBase: ref[i-1]})
			i--
		case Ins:
			ops = append(ops, Op{Kind: Ins, RefPos: i, ReadPos: j - 1, ReadBase: read[j-1]})
			j--
		}
	}
	// Reverse into forward order.
	for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
		ops[a], ops[b] = ops[b], ops[a]
	}
	return ops
}

// fillFull fills the whole (m+1)×(n+1) unit-cost DP matrix, row-major.
func fillFull(cost []int32, ref, read string) {
	m, n := len(ref), len(read)
	cols := n + 1
	for j := 0; j <= n; j++ {
		cost[j] = int32(j)
	}
	for i := 1; i <= m; i++ {
		row, prev := cost[i*cols:(i+1)*cols], cost[(i-1)*cols:i*cols]
		row[0] = int32(i)
		a := ref[i-1]
		for j := 1; j <= n; j++ {
			c := int32(1)
			if a == read[j-1] {
				c = 0
			}
			best := prev[j-1] + c
			if d := prev[j] + 1; d < best {
				best = d
			}
			if d := row[j-1] + 1; d < best {
				best = d
			}
			row[j] = best
		}
	}
}

// outOfBand is the cost every cell outside the band reads as: larger than
// any in-band cost, and far enough from overflow to add one to.
const outOfBand = int32(1 << 29)

// fillBand fills the DP cells with |i−j| <= w. Row i is 2w+2 slots long:
// cell (i, j) sits at slot j−i+w of it, and the last slot holds outOfBand,
// so both neighbours that leave the band — (i−1, i+w) above and (i, i−w−1)
// to the left — land on a sentinel, in the fill and in the traceback alike.
func fillBand(cost []int32, ref, read string, w int) {
	m, n := len(ref), len(read)
	width := 2*w + 2
	for i := 0; i <= m; i++ {
		cost[i*width+width-1] = outOfBand
	}
	for j := 0; j <= min(n, w); j++ {
		cost[w+j] = int32(j)
	}
	for i := 1; i <= m; i++ {
		base := i*(width-1) + w // cost[base+j] is cell (i, j)
		up := base - (width - 1)
		lo, hi := max(0, i-w), min(n, i+w)
		left := outOfBand
		if lo == 0 {
			cost[base] = int32(i)
			left, lo = int32(i), 1
		}
		a := ref[i-1]
		rd := read[lo-1 : hi]
		row := cost[base+lo : base+hi+1][:len(rd)]
		// prev[t] is cell (i−1, lo−1+t): the diagonal of row[t], and the
		// cell above row[t−1].
		prev := cost[up+lo-1 : up+hi+1][:len(rd)+1]
		for t := 0; t < len(rd); t++ { // by byte: range would step by rune
			c := int32(1)
			if a == rd[t] {
				c = 0
			}
			best := prev[t] + c
			if d := prev[t+1] + 1; d < best {
				best = d
			}
			if d := left + 1; d < best {
				best = d
			}
			row[t] = best
			left = best
		}
	}
}

// Apply replays an edit script against ref and returns the resulting read.
// It returns an error if the script does not consume ref exactly.
func Apply(ref string, ops []Op) (string, error) {
	out := make([]byte, 0, len(ref))
	i := 0
	for _, op := range ops {
		switch op.Kind {
		case Equal:
			if i >= len(ref) || ref[i] != op.RefBase {
				return "", fmt.Errorf("align: Equal op at ref pos %d does not match reference", i)
			}
			out = append(out, ref[i])
			i++
		case Sub:
			if i >= len(ref) {
				return "", fmt.Errorf("align: Sub op beyond reference end")
			}
			out = append(out, op.ReadBase)
			i++
		case Del:
			if i >= len(ref) {
				return "", fmt.Errorf("align: Del op beyond reference end")
			}
			i++
		case Ins:
			out = append(out, op.ReadBase)
		default:
			return "", fmt.Errorf("align: unknown op kind %v", op.Kind)
		}
	}
	if i != len(ref) {
		return "", fmt.Errorf("align: script consumed %d of %d reference bases", i, len(ref))
	}
	return string(out), nil
}

// CostOf returns the number of non-Equal operations in a script.
func CostOf(ops []Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind != Equal {
			n++
		}
	}
	return n
}
