package channel

import (
	"fmt"
	"math"
	"strings"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Pool stages: the population shape of Stage. A pool stage does not touch
// individual reads — it rewrites how many reads a cluster contributes to
// the pool, which is where PCR amplification skew, strand breakage and
// decay dropout actually act (Heckel et al.). Pipeline.BindCoverage
// layers the pipeline's pool stages over a base CoverageModel in stage
// order, together with its template stages.
//
// The RNG draw-order contract (DESIGN.md §16): every cluster draws from
// its own per-cluster RNG in the order coverage → pool → template →
// reads. Pool draws come after the base coverage draw, template draws
// after the pool draws, and both before any read is generated. The number
// of draws a pool or template stage consumes may depend only on the
// cluster index, the reference set and the incoming count or template —
// never on which worker or shard runs the cluster — so pipeline output
// stays deterministic, worker-invariant and fleet-merge-safe.

// PoolStage is a Stage that transforms the cluster population.
type PoolStage interface {
	Stage
	// PoolCoverage maps cluster clusterIndex's read count entering the
	// stage (n) to the count leaving it, drawing any randomness from r.
	// Results are clamped to >= 0 by the binding coverage model.
	PoolCoverage(clusterIndex, n int, r *rng.RNG) int
}

// TemplateStage is the template shape of Stage: it picks the molecule
// each read starts from, for effects no single strand produces on its own
// — PCR template switching splices two strands into one chimera. It sees
// the whole reference set and the global cluster index, and its draws
// come from the per-cluster RNG after the pool draws and before any read
// draw, so it shards and checkpoints like every other stage.
type TemplateStage interface {
	Stage
	// Template returns the molecule a read of cluster clusterIndex starts
	// from, given the molecule t picked by the earlier template stages
	// (refs[clusterIndex] for the first), drawing any randomness from r.
	Template(refs []dna.Strand, clusterIndex int, t dna.Strand, r *rng.RNG) dna.Strand
}

// BindCoverage layers the pipeline's pool and template stages over a
// base coverage model in stage order. Each cluster samples the base
// coverage first, then lets every pool stage rewrite the count — all from
// the per-cluster RNG, before read generation; the Simulator then draws
// each read's template from the bound template stages. Pipelines without
// pool or template stages return base unchanged, so binding is always
// safe (and keeps existing coverage names and draw streams byte-identical
// for strand-only pipelines).
func (p Pipeline) BindCoverage(base CoverageModel) CoverageModel {
	pc := pooledCoverage{base: base}
	for _, st := range p.Stages {
		if ps, ok := st.(PoolStage); ok {
			pc.stages = append(pc.stages, ps)
		}
		if ts, ok := st.(TemplateStage); ok {
			pc.templates = append(pc.templates, ts)
		}
	}
	if len(pc.stages) == 0 && len(pc.templates) == 0 {
		return base
	}
	return pc
}

// pooledCoverage is the CoverageModel BindCoverage builds.
type pooledCoverage struct {
	base      CoverageModel
	stages    []PoolStage
	templates []TemplateStage
}

// Sample implements CoverageModel: the base samples first, seeing the
// reference, then the pool stages rewrite its count.
func (p pooledCoverage) Sample(ref dna.Strand, i int, r *rng.RNG) int {
	n := p.base.Sample(ref, i, r)
	for _, st := range p.stages {
		n = st.PoolCoverage(i, n, r)
		if n < 0 {
			n = 0
		}
	}
	return n
}

// Name implements CoverageModel: pool stages, then template stages — the
// order their draws come in.
func (p pooledCoverage) Name() string {
	names := make([]string, 0, len(p.stages)+len(p.templates))
	for _, st := range p.stages {
		names = append(names, st.Name())
	}
	for _, st := range p.templates {
		names = append(names, st.Name())
	}
	return fmt.Sprintf("%s+pool(%s)", p.base.Name(), strings.Join(names, "→"))
}

// templateStages returns the template stages bound into cov, nil when
// none are.
func templateStages(cov CoverageModel) []TemplateStage {
	if pc, ok := cov.(pooledCoverage); ok {
		return pc.templates
	}
	return nil
}

// DefaultPCREfficiencySD is the per-cycle standard deviation of
// log-amplification-efficiency used by NewPhysicalPipeline: small per
// cycle, but compounded over ~30 cycles it reproduces the several-fold
// coverage spread Heckel et al. observed after PCR.
const DefaultPCREfficiencySD = 0.02

// DefaultBreakagePerYear is the strand-breakage hazard rate used by
// NewPhysicalPipeline: ln 2 / 521 y, the half-life Grass et al. measured
// for silica-encapsulated DNA.
const DefaultBreakagePerYear = 0.00133

// PCRAmplification is the population-aware PCR stage, both shapes at
// once: the embedded Model adds the per-cycle polymerase substitutions to
// every strand, and PoolCoverage applies lognormal amplification skew —
// per-cycle efficiency differences compound multiplicatively over the
// cycle count, so some clusters amplify far past the mean while others
// starve.
type PCRAmplification struct {
	*Model
	// Cycles is the amplification cycle count.
	Cycles int
	// EfficiencySD is the per-cycle standard deviation of the cluster's
	// log-efficiency; zero disables the skew (and consumes no draws).
	EfficiencySD float64
}

// NewPCRAmplification builds the stage; negative cycles clamp to zero
// exactly as NewPCRStage does.
func NewPCRAmplification(cycles int, perCycleSubRate, efficiencySD float64) *PCRAmplification {
	if cycles < 0 {
		cycles = 0
	}
	if efficiencySD < 0 {
		efficiencySD = 0
	}
	return &PCRAmplification{Model: NewPCRStage(cycles, perCycleSubRate), Cycles: cycles, EfficiencySD: efficiencySD}
}

// PoolCoverage implements PoolStage: one Normal draw per cluster sets the
// cluster's amplification factor exp(N(-σ²/2, σ)) with σ = EfficiencySD·√Cycles.
// The -σ²/2 location keeps the factor's expectation at exactly 1, so the
// skew spreads coverage without inflating its mean.
func (p *PCRAmplification) PoolCoverage(_, n int, r *rng.RNG) int {
	if p.EfficiencySD <= 0 || n <= 0 {
		return n
	}
	sigma := p.EfficiencySD * math.Sqrt(float64(p.Cycles))
	factor := math.Exp(r.Normal(-0.5*sigma*sigma, sigma))
	return int(float64(n)*factor + 0.5)
}

// AgingStage is the population-aware storage stage, both shapes at once:
// the embedded Model carries the hydrolytic per-strand damage of
// NewDecayStage, and PoolCoverage thins the pool by strand breakage —
// each strand survives the storage period with probability
// exp(-Years·BreakagePerYear), so old pools lose whole strands (down to
// empty clusters) on top of the per-base decay.
type AgingStage struct {
	*Model
	// Years is the storage duration.
	Years float64
	// BreakagePerYear is the per-strand breakage hazard rate; zero
	// disables the thinning (and consumes no draws).
	BreakagePerYear float64
}

// NewAgingStage builds the stage; negative years clamp to zero exactly as
// NewDecayStage does.
func NewAgingStage(years, ratePerYear, breakagePerYear float64) *AgingStage {
	if years < 0 {
		years = 0
	}
	if breakagePerYear < 0 {
		breakagePerYear = 0
	}
	return &AgingStage{Model: NewDecayStage(years, ratePerYear), Years: years, BreakagePerYear: breakagePerYear}
}

// PoolCoverage implements PoolStage: binomial thinning at the survival
// probability.
func (a *AgingStage) PoolCoverage(_, n int, r *rng.RNG) int {
	if a.Years <= 0 || a.BreakagePerYear <= 0 || n <= 0 {
		return n
	}
	return r.Binomial(n, math.Exp(-a.Years*a.BreakagePerYear))
}
