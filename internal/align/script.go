package align

import (
	"fmt"
	"math/bits"
	"slices"

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
// It is AppendScript into a fresh slice.
func Script(ref, read string, opts ScriptOptions) []Op {
	return AppendScript(nil, ref, read, opts)
}

// AppendScript appends a minimum-cost edit script transforming ref into
// read to dst and returns the extended slice, so a caller that aligns in a
// loop can reuse one buffer. The number of non-Equal ops equals
// Distance(ref, read). Among equally minimal scripts, the tie-break policy
// in opts picks one; the zero options value is the deterministic policy.
//
// The bit-parallel pass runs with ref as the rows and keeps each strip's
// per-column vertical deltas; the traceback reads every DP cell it needs
// off them, so it sees the full matrix's values and tie candidates at
// every step: the same ops, and under Randomize the same RNG draws
// (DESIGN §18).
func AppendScript(dst []Op, ref, read string, opts ScriptOptions) []Op {
	ar := getArena()
	defer putArena(ar)
	m, n := len(ref), len(read)
	d := ar.distance(ref, read, true)
	// A script has one op per reference base plus one per insertion, and
	// there are at most d insertions. The traceback fills out from its
	// end, and the ops are moved down to the front of it at the end. A
	// fresh script is non-nil even when empty.
	if dst == nil {
		dst = make([]Op, 0, m+d)
	}
	dst = slices.Grow(dst, m+d)
	out := dst[len(dst) : len(dst)+m+d]
	w := len(out)

	// Traceback from (m, n). cur is D[i][j]. Row i is bit b = (i−1) mod 64
	// of strip (i−1)/64, so D[i−1][j] is cur less that bit's vertical
	// delta, and D[i][j−1] is the left column's top plus the deltas of
	// bits 0..b. Candidate moves are bits of cand in the full-matrix
	// order: 1 diagonal (Equal or Sub), 2 up (Del), 4 left (Ins).
	cols, stride := ar.cols, n+1
	i, j, cur := m, n, d
	for i > 0 && j > 0 {
		if ref[i-1] == read[j-1] && !opts.Randomize {
			// D[i][j] − D[i−1][j−1] is 0 or 1, and a match makes the
			// diagonal cost D[i−1][j−1] ≤ D[i][j]: Equal is always a
			// candidate, and the deterministic policy takes it first.
			w--
			o := &out[w]
			o.Kind, o.RefPos, o.ReadPos, o.RefBase, o.ReadBase = Equal, i-1, j-1, ref[i-1], read[j-1]
			i, j = i-1, j-1
			continue
		}
		b := uint(i-1) & 63
		k := (i-1)>>6*stride + j
		here, left := cols[k], cols[k-1]
		up := cur - int(here.pv>>b&1) + int(here.mv>>b&1)
		mask := uint64(2)<<b - 1
		lft := int(left.top) + bits.OnesCount64(left.pv&mask) - bits.OnesCount64(left.mv&mask)
		diag := lft - int(left.pv>>b&1) + int(left.mv>>b&1)
		kind := Equal
		if ref[i-1] != read[j-1] {
			kind = Sub
		}
		var cand uint
		if diag+int(kind) == cur {
			cand |= 1
		}
		if up+1 == cur {
			cand |= 2
		}
		if lft+1 == cur {
			cand |= 4
		}
		if cand == 0 {
			panic("align: inconsistent DP column") // unreachable
		}
		if opts.Randomize && cand&(cand-1) != 0 {
			if opts.RNG == nil {
				panic("align: Randomize requires an RNG")
			}
			// Take the candidate the draw names: drop that many of the
			// lowest.
			for pick := opts.RNG.Intn(bits.OnesCount(cand)); pick > 0; pick-- {
				cand &= cand - 1
			}
		}
		w--
		o := &out[w]
		switch {
		case cand&1 != 0:
			o.Kind, o.RefPos, o.ReadPos, o.RefBase, o.ReadBase = kind, i-1, j-1, ref[i-1], read[j-1]
			i, j, cur = i-1, j-1, diag
		case cand&2 != 0:
			o.Kind, o.RefPos, o.ReadPos, o.RefBase, o.ReadBase = Del, i-1, j, ref[i-1], 0
			i, cur = i-1, up
		default:
			o.Kind, o.RefPos, o.ReadPos, o.RefBase, o.ReadBase = Ins, i, j-1, 0, read[j-1]
			j, cur = j-1, lft
		}
	}
	// On row 0 or column 0 the only move left is Ins or Del: one candidate,
	// no draw.
	for ; i > 0; i-- {
		w--
		out[w] = Op{Kind: Del, RefPos: i - 1, RefBase: ref[i-1]}
	}
	for ; j > 0; j-- {
		w--
		out[w] = Op{Kind: Ins, ReadPos: j - 1, ReadBase: read[j-1]}
	}
	return dst[:len(dst)+copy(out, out[w:])]
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
