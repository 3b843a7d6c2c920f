package channel

import (
	"fmt"
	"math"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// GCBiasCoverage attenuates another coverage model for strands whose
// GC-ratio deviates from 50%: amplification efficiency decays
// exponentially with deviation, which both skews the copy-number
// distribution and silently erases extreme strands — the PCR bias
// DNASimulator does not model (§2.2.3).
type GCBiasCoverage struct {
	// Base supplies the unbiased coverage.
	Base CoverageModel
	// Strength controls the decay: the expected coverage is multiplied by
	// exp(-Strength · |GC − 0.5| · 2). Zero disables the bias.
	Strength float64
}

// Name implements CoverageModel.
func (g GCBiasCoverage) Name() string {
	return fmt.Sprintf("%s+gcbias(%.1f)", g.Base.Name(), g.Strength)
}

// Sample implements CoverageModel.
func (g GCBiasCoverage) Sample(ref dna.Strand, i int, r *rng.RNG) int {
	n := g.Base.Sample(ref, i, r)
	if g.Strength <= 0 || n == 0 {
		return n
	}
	deviation := math.Abs(ref.GCRatio()-0.5) * 2 // 0 at balance, 1 at extreme
	keep := math.Exp(-g.Strength * deviation)
	// Thin the reads binomially: each copy survives amplification with
	// probability keep.
	return r.Binomial(n, keep)
}
