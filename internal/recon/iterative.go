package recon

import (
	"slices"

	"dnastore/internal/dna"
)

// Iterative is the iterative reconstruction of Sabary et al. [21]. It has
// two phases:
//
//  1. A strictly one-way corrective sweep: position by position from the
//     strand start, the copies vote, the plurality symbol is emitted, and
//     disagreeing copies are corrected *in place* (inserted symbols
//     removed, deleted symbols re-inserted, substitutions overwritten) so
//     they stay index-aligned. The sweep stops early once every copy is
//     exhausted, leaving a truncated estimate.
//  2. Iterative refinement: each original copy is realigned to the current
//     estimate with a maximum-likelihood edit script, the alignment columns
//     vote (keep/substitute/delete, plus insertion slots between columns),
//     and the estimate is rebuilt; repeat until fixpoint or PolishRounds.
//
// The sweep gives the algorithm the paper's observed signature — errors
// propagate linearly toward the strand end (Figs 3.4a/b), residual errors
// are deletion-dominant (§3.4.1), and accuracy is highly sensitive to
// terminal spatial skew (§3.3.2) — while the refinement phase supplies the
// accuracy edge over BMA that Tables 2.1–3.2 report.
type Iterative struct {
	// Window is the look-ahead used by the sweep (default 3).
	Window int
	// PolishRounds bounds the refinement iterations: 0 means the default
	// (2); negative disables refinement entirely (pure one-way sweep).
	PolishRounds int
}

// NewIterative returns the Iterative algorithm with default parameters.
func NewIterative() Iterative { return Iterative{Window: 3} }

// NewSweepOnlyIterative returns the pure one-way sweep without refinement,
// used by the ablation benchmarks.
func NewSweepOnlyIterative() Iterative { return Iterative{Window: 3, PolishRounds: -1} }

// Name implements Reconstructor.
func (it Iterative) Name() string {
	if it.PolishRounds < 0 {
		return "Iterative-sweep"
	}
	return "Iterative"
}

func (it Iterative) window() int {
	if it.Window <= 0 {
		return 3
	}
	return it.Window
}

func (it Iterative) rounds() int {
	switch {
	case it.PolishRounds < 0:
		return 0
	case it.PolishRounds == 0:
		return 2
	default:
		return it.PolishRounds
	}
}

// Reconstruct implements Reconstructor.
func (it Iterative) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	sc := getScratch()
	defer putScratch(sc)
	return sc.refine(cluster, dna.Strand(it.forward(sc, cluster, length, false)), nil, it.rounds())
}

// forward performs the one-way corrective sweep, over the reversed copies
// when reverse is set, and returns the estimate in sc.out.
func (it Iterative) forward(sc *scratch, cluster []dna.Strand, length int, reverse bool) []byte {
	copies := sc.load(cluster, length, reverse)
	w := it.window()
	target, futVotes := sc.lookahead(w)
	out := sc.out[:0]
	for i := 0; i < length; i++ {
		var votes voteCounts
		for _, c := range copies {
			if i < len(c) {
				votes.add(baseCode[c[i]])
			}
		}
		maj, ok := votes.winner()
		if !ok {
			break // every copy exhausted: the tail was deleted everywhere
		}
		mb := maj.Byte()
		out = append(out, mb)

		// Future prediction from the copies agreeing at this position.
		for k := range futVotes {
			futVotes[k] = voteCounts{}
		}
		for _, c := range copies {
			if i < len(c) && c[i] == mb {
				for k := 1; k <= w && i+k < len(c); k++ {
					futVotes[k-1].add(baseCode[c[i+k]])
				}
			}
		}
		target[0] = int8(maj)
		for k := 0; k < w; k++ {
			if fb, fok := futVotes[k].winner(); fok {
				target[k+1] = int8(fb)
			} else {
				target[k+1] = -1
			}
		}

		for j := range copies {
			c := copies[j]
			if i >= len(c) || c[i] == mb {
				continue
			}
			surplus := len(c) - length
			switch classify(c, i, target, surplus) {
			case hypIns:
				// Remove the inserted symbol; the matching one slides in.
				copies[j] = append(c[:i], c[i+1:]...)
			case hypDel:
				// Re-insert the plurality symbol at this position.
				c = append(c, 0)
				copy(c[i+1:], c[i:len(c)-1])
				c[i] = mb
				copies[j] = c
			default:
				// Substitution: overwrite in place.
				c[i] = mb
			}
		}
	}
	sc.out = out
	return out
}

// TwoWayIterative is the paper's §4.3 proposed improvement: the Iterative
// sweep runs forward over the cluster and backward over the reversed
// cluster, the two estimates are joined at an *agreement anchor* — a k-mer
// near the middle on which both passes agree at the same offset, falling
// back to the forward estimate when none exists — and the joined estimate
// is refined exactly as Iterative refines. The anchor avoids the splice-
// junction artifacts that plain mid-point concatenation (BMA-style)
// introduces.
type TwoWayIterative struct {
	// Window is the sweep look-ahead (default 3).
	Window int
	// PolishRounds is as for Iterative.
	PolishRounds int
	// AnchorK is the agreement k-mer length (default 8).
	AnchorK int
	// PlainSplice switches to BMA-style fixed mid-point concatenation, for
	// the splice-rule ablation.
	PlainSplice bool
}

// NewTwoWayIterative returns the two-way variant with default parameters.
func NewTwoWayIterative() TwoWayIterative { return TwoWayIterative{Window: 3} }

// Name implements Reconstructor.
func (tw TwoWayIterative) Name() string {
	if tw.PlainSplice {
		return "Iterative-2way-plain"
	}
	return "Iterative-2way"
}

// Reconstruct implements Reconstructor.
func (tw TwoWayIterative) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	it := Iterative{Window: tw.Window, PolishRounds: tw.PolishRounds}
	sc := getScratch()
	defer putScratch(sc)
	forward := dna.Strand(it.forward(sc, cluster, length, false))
	back := it.forward(sc, cluster, length, true)
	slices.Reverse(back)
	backward := dna.Strand(back)
	// Renormalise the backward estimate into the forward frame: a truncated
	// backward pass is missing symbols at the strand *start*.
	for backward.Len() < length {
		backward = "A" + backward
	}
	if backward.Len() > length {
		backward = backward[backward.Len()-length:]
	}
	var est dna.Strand
	if tw.PlainSplice {
		est = spliceHalves(forward, backward, length)
	} else {
		est = anchoredSplice(forward, backward, length, tw.anchorK())
	}
	return sc.refine(cluster, est, nil, it.rounds())
}

func (tw TwoWayIterative) anchorK() int {
	if tw.AnchorK <= 0 {
		return 8
	}
	return tw.AnchorK
}

// anchoredSplice joins the forward and backward estimates at the position
// closest to the middle where both place the same k-mer, preferring the
// smallest displacement from the midpoint. When the estimates never agree,
// the forward estimate is returned unchanged.
func anchoredSplice(f, b dna.Strand, length, k int) dna.Strand {
	mid := length / 2
	for delta := 0; delta <= length/4; delta++ {
		for _, pos := range []int{mid - delta, mid + delta} {
			if pos < 0 || pos+k > length {
				continue
			}
			if pos+k <= f.Len() && pos+k <= b.Len() && f[pos:pos+k] == b[pos:pos+k] {
				return f[:pos] + b[pos:]
			}
			if delta == 0 {
				break // mid-delta and mid+delta coincide
			}
		}
	}
	return f
}
