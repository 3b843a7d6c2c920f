package recon

import "dnastore/internal/dna"

// Majority is the simplest consensus: an independent per-position vote
// with no indel awareness. It serves as the floor baseline — a single
// deletion in a copy shifts every later vote of that copy.
type Majority struct{}

// Name implements Reconstructor.
func (Majority) Name() string { return "Majority" }

// Reconstruct implements Reconstructor.
func (Majority) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	out := make([]byte, 0, length)
	for i := 0; i < length; i++ {
		var votes voteCounts
		for _, c := range cluster {
			if i < c.Len() {
				votes.add(baseCode[c[i]])
			}
		}
		b, ok := votes.winner()
		if !ok {
			break // no copy reaches this position: the tail is an erasure
		}
		out = append(out, b.Byte())
	}
	return dna.Strand(out)
}
