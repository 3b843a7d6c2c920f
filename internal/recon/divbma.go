package recon

import (
	"dnastore/internal/align"
	"dnastore/internal/dna"
)

// DividerBMA implements the Divider BMA algorithm of Sabary et al. [21]:
// the cluster is divided by copy length relative to the design length L.
// Copies of length exactly L vote position-by-position directly (they are
// assumed to carry only substitutions); shorter and longer copies are first
// aligned to the interim consensus with an edit script, and vote only at
// the positions the alignment matches or substitutes.
//
// The division makes the algorithm brittle when few or no copies have
// length exactly L — precisely the Nanopore regime, where the paper's
// Table 2.1 measures it at 2.73% per-strand accuracy.
type DividerBMA struct{}

// NewDividerBMA returns the algorithm.
func NewDividerBMA() DividerBMA { return DividerBMA{} }

// Name implements Reconstructor.
func (DividerBMA) Name() string { return "DivBMA" }

// Reconstruct implements Reconstructor.
func (d DividerBMA) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	var exact, others []dna.Strand
	for _, c := range cluster {
		if c.Len() == length {
			exact = append(exact, c)
		} else {
			others = append(others, c)
		}
	}

	votes := make([]voteCounts, length)
	for _, c := range exact {
		for i := 0; i < length; i++ {
			votes[i].add(baseCode[c[i]])
		}
	}

	// Interim consensus from the exact-length class; if the class is empty
	// the algorithm has no anchor and degrades to a plain majority baseline
	// over raw positions — the source of its poor high-indel accuracy.
	interim := make([]byte, length)
	if len(exact) > 0 {
		for i := 0; i < length; i++ {
			b, _ := votes[i].winner()
			interim[i] = b.Byte()
		}
	} else {
		m := Majority{}.Reconstruct(cluster, length)
		return m
	}

	// Align the indel-carrying copies to the interim consensus; they vote
	// at matched and substituted positions only.
	sc := getScratch()
	defer putScratch(sc)
	for _, c := range others {
		sc.ops = align.AppendScript(sc.ops[:0], string(interim), string(c), align.ScriptOptions{})
		for _, op := range sc.ops {
			if op.Kind == align.Equal || op.Kind == align.Sub {
				votes[op.RefPos].add(baseCode[op.ReadBase])
			}
		}
	}

	out := make([]byte, length)
	for i := 0; i < length; i++ {
		b, ok := votes[i].winner()
		if !ok {
			b = dna.A
		}
		out[i] = b.Byte()
	}
	return dna.Strand(out)
}
