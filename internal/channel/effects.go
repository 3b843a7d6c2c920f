package channel

import (
	"fmt"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Fault and interaction effects as pipeline stages. Real pools show
// pathologies the happy-path channel never produces on demand: whole
// clusters vanish (failed PCR, storage decay — Heckel et al. report strand
// dropout as a first-order effect), synthesis defects zero out contiguous
// plate regions, reads stop short (polymerase drop-off, aborted nanopore
// passes), contamination injects alien sequence, and PCR template
// switching splices two strands into one chimeric molecule — the
// strand-strand interaction §2.2.3 faults DNASimulator for ignoring.
//
// Each effect is one of the three stage shapes and is written in the
// stages DSL like any other stage:
//
//	dropout=P          pool: zero whole clusters with probability P
//	zerocov=START:LEN  pool: zero clusters [START, START+LEN), no draws
//	truncate=P[:MIN]   strand: keep a prefix of fraction U[MIN,1), MIN 0.2
//	contam=P           strand: replace with foreign or alien-tailed sequence
//	chimera=P          template: start from ref[:cut] + partner[cut:]
//
// All of them draw only from the per-cluster RNG, so faulted datasets stay
// deterministic, worker-invariant and shardable.

// Dropout is the pool stage of strand dropout: each cluster vanishes with
// probability P. A fresh sequencing seed re-rolls which clusters vanish —
// exactly what an adaptive re-sequencing retry exploits.
type Dropout struct{ P float64 }

// Name implements Stage.
func (d Dropout) Name() string { return fmt.Sprintf("dropout(%g)", d.P) }

// PoolCoverage implements PoolStage: one Bool draw per cluster.
func (d Dropout) PoolCoverage(_, n int, r *rng.RNG) int {
	if r.Bool(d.P) {
		return 0
	}
	return n
}

// ZeroCoverage is the pool stage of a spatially localised synthesis or
// plate failure: every cluster whose index lies in [Start, Start+Len) gets
// no reads. It draws nothing, which makes it the effect of choice for
// tests that must erase exactly known strands.
type ZeroCoverage struct{ Start, Len int }

// Name implements Stage.
func (z ZeroCoverage) Name() string { return fmt.Sprintf("zerocov(%d:%d)", z.Start, z.Len) }

// PoolCoverage implements PoolStage.
func (z ZeroCoverage) PoolCoverage(i, n int, _ *rng.RNG) int {
	if i >= z.Start && i-z.Start < z.Len {
		return 0
	}
	return n
}

// Truncation is the strand stage of polymerase drop-off and aborted
// sequencing passes, which destroy strand suffixes: with probability P
// only a prefix survives, its fraction drawn uniformly from [MinFrac, 1)
// (MinFrac outside (0,1) means 0.2).
type Truncation struct{ P, MinFrac float64 }

// Name implements Channel.
func (t Truncation) Name() string { return fmt.Sprintf("truncate(%g:%g)", t.P, t.minFrac()) }

// minFrac is the effective shortest surviving prefix fraction.
func (t Truncation) minFrac() float64 {
	if t.MinFrac <= 0 || t.MinFrac >= 1 {
		return 0.2
	}
	return t.MinFrac
}

// keep draws how many of n bases survive.
func (t Truncation) keep(n int, r *rng.RNG) int {
	if !r.Bool(t.P) || n < 2 {
		return n
	}
	minFrac := t.minFrac()
	frac := minFrac + r.Float64()*(1-minFrac)
	return min(max(int(frac*float64(n)), 1), n)
}

// AppendTransmit implements Channel.
func (t Truncation) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, _ *Scratch) []byte {
	return dna.AppendLetters(dst, ref[:t.keep(len(ref), r)])
}

// Contamination is the strand stage of contamination bursts: with
// probability P the read is replaced, half the time by a wholly foreign
// strand of the same length (carry-over from another pool), half the time
// by its own real prefix with an alien tail.
type Contamination struct{ P float64 }

// Name implements Channel.
func (c Contamination) Name() string { return fmt.Sprintf("contam(%g)", c.P) }

// AppendTransmit implements Channel.
func (c Contamination) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, _ *Scratch) []byte {
	if !r.Bool(c.P) {
		return dna.AppendLetters(dst, ref)
	}
	keep := 0
	if !r.Bool(0.5) && len(ref) >= 2 {
		keep = 1 + r.Intn(len(ref)-1)
	}
	dst = dna.AppendLetters(dst, ref[:keep])
	for i := keep; i < max(len(ref), 2); i++ {
		dst = append(dst, dna.Base(r.Intn(dna.NumBases)).Byte())
	}
	return dst
}

// Chimera is the template stage of PCR template switching: with
// probability P a read starts from a chimeric molecule — its template's
// prefix up to a uniform cut, then the rest of a partner reference drawn
// uniformly from the other clusters. The cut is taken at the same
// position in both, so the chimera stays near the design length. The read
// stays attributed to the cluster that donated the prefix, where
// clustering would mostly put it.
type Chimera struct{ P float64 }

// Name implements Stage.
func (c Chimera) Name() string { return fmt.Sprintf("chimera(%g)", c.P) }

// Template implements TemplateStage: one Bool draw per read, then a
// partner and a cut draw for each chimera.
func (c Chimera) Template(refs []dna.Strand, i int, t dna.Strand, r *rng.RNG) dna.Strand {
	if len(refs) < 2 || !r.Bool(c.P) {
		return t
	}
	j := r.Intn(len(refs) - 1)
	if j >= i {
		j++
	}
	partner := refs[j]
	if t.Len() < 2 || partner.Len() < 2 {
		return t
	}
	cut := 1 + r.Intn(t.Len()-1)
	return t[:cut] + partner[min(cut, partner.Len()-1):]
}
