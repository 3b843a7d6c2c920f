package channel

import (
	"fmt"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// CoverageModel decides how many noisy reads each reference strand
// receives. Real sequencing coverage is overdispersed (Heckel et al. found
// it approximately negative-binomial); the evaluation protocols also need
// fixed and per-cluster "custom" coverage (§2.2.2). Every model sees the
// reference, so sequence-dependent amplification (GCBiasCoverage)
// composes under any wrapper.
type CoverageModel interface {
	// Sample returns the read count for the cluster at the given index,
	// whose reference strand is ref.
	Sample(ref dna.Strand, clusterIndex int, r *rng.RNG) int
	// Name identifies the model in tables.
	Name() string
}

// NewCoverage builds a coverage model by name around a mean read count:
// fixed (also the empty name), negbin with dispersion 2.5, poisson, or
// normal with SD mean/3.
func NewCoverage(name string, mean float64) (CoverageModel, error) {
	switch name {
	case "", "fixed":
		return FixedCoverage(int(mean)), nil
	case "negbin":
		return NegBinCoverage{Mean: mean, Dispersion: 2.5}, nil
	case "poisson":
		return PoissonCoverage(mean), nil
	case "normal":
		return NormalCoverage{Mean: mean, SD: mean / 3}, nil
	}
	return nil, fmt.Errorf("unknown coverage model %q", name)
}

// FixedCoverage gives every cluster exactly N reads.
type FixedCoverage int

// Sample implements CoverageModel.
func (f FixedCoverage) Sample(dna.Strand, int, *rng.RNG) int { return int(f) }

// Name implements CoverageModel.
func (f FixedCoverage) Name() string { return fmt.Sprintf("fixed(%d)", int(f)) }

// CustomCoverage assigns each cluster the coverage observed in a reference
// dataset — the paper's "custom coverage" protocol, which makes simulated
// data directly comparable with real data cluster-by-cluster. Indices past
// the end wrap around.
type CustomCoverage []int

// Sample implements CoverageModel.
func (c CustomCoverage) Sample(_ dna.Strand, i int, _ *rng.RNG) int {
	if len(c) == 0 {
		return 0
	}
	return c[i%len(c)]
}

// Name implements CoverageModel.
func (c CustomCoverage) Name() string { return "custom" }

// NegBinCoverage draws coverage from a negative-binomial distribution with
// the given mean and dispersion (variance = mean + mean²/dispersion), the
// empirically observed shape of sequencing coverage.
type NegBinCoverage struct {
	Mean, Dispersion float64
}

// Sample implements CoverageModel.
func (n NegBinCoverage) Sample(_ dna.Strand, _ int, r *rng.RNG) int {
	return r.NegBinomialMeanDisp(n.Mean, n.Dispersion)
}

// Name implements CoverageModel.
func (n NegBinCoverage) Name() string {
	return fmt.Sprintf("negbin(μ=%.1f,k=%.1f)", n.Mean, n.Dispersion)
}

// PoissonCoverage draws coverage from a Poisson distribution — the simplest
// stochastic model, proposed by Heckel et al. [14] for PCR amplification.
type PoissonCoverage float64

// Sample implements CoverageModel.
func (p PoissonCoverage) Sample(_ dna.Strand, _ int, r *rng.RNG) int {
	return r.Poisson(float64(p))
}

// Name implements CoverageModel.
func (p PoissonCoverage) Name() string { return fmt.Sprintf("poisson(μ=%.1f)", float64(p)) }

// NormalCoverage draws coverage from a normal distribution truncated at
// zero, per the Bornholt et al. observation cited in §2.2.3.
type NormalCoverage struct {
	Mean, SD float64
}

// Sample implements CoverageModel.
func (n NormalCoverage) Sample(_ dna.Strand, _ int, r *rng.RNG) int {
	v := r.Normal(n.Mean, n.SD)
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// Name implements CoverageModel.
func (n NormalCoverage) Name() string {
	return fmt.Sprintf("normal(μ=%.1f,σ=%.1f)", n.Mean, n.SD)
}

// ErasureCoverage wraps another model and zeroes each cluster's coverage
// with probability P, modelling whole-strand loss (failed PCR
// amplification or storage decay — the 16 empty clusters in the Nanopore
// dataset).
type ErasureCoverage struct {
	Base CoverageModel
	P    float64
}

// Sample implements CoverageModel.
func (e ErasureCoverage) Sample(ref dna.Strand, i int, r *rng.RNG) int {
	if r.Bool(e.P) {
		return 0
	}
	return e.Base.Sample(ref, i, r)
}

// Name implements CoverageModel.
func (e ErasureCoverage) Name() string {
	return fmt.Sprintf("%s+erasures(%.4f)", e.Base.Name(), e.P)
}
