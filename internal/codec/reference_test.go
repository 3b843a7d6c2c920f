package codec_test

import (
	"reflect"
	"runtime"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// The slow reference SelectAmplify is checked against: the serial scan as
// it stood before the pool was scanned in parallel chunks. Only the name
// and first doc line changed.

// refSelectAmplify models PCR retrieval over a mixed pool: reads whose prefix
// is within maxMismatch edit distance of the primer are amplified
// (returned with the primer region stripped); everything else is left
// behind. Imperfect selectivity — the §1.1.1 caveat — appears when
// maxMismatch is generous enough to capture other objects' primers.
func refSelectAmplify(pool []dna.Strand, primer dna.Strand, maxMismatch int) []dna.Strand {
	var out []dna.Strand
	plen := primer.Len()
	for _, s := range pool {
		if s.Len() < plen {
			continue
		}
		if align.Similar(string(primer), string(s[:plen]), maxMismatch) {
			out = append(out, s[plen:])
		}
	}
	return out
}

// TestSelectAmplifyMatchesReference runs SelectAmplify against the serial
// reference at GOMAXPROCS 1, 2 and 4 and compares the amplified reads and
// their order: a store-shaped read-out of four keyed objects through a
// noisy channel (several chunks' worth of reads), its primerless and
// short-read corners, and the empty pool.
func TestSelectAmplifyMatchesReference(t *testing.T) {
	lib, err := codec.GeneratePrimers(4, codec.PrimerConfig{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var tagged []dna.Strand
	for i, p := range lib {
		tagged = append(tagged, codec.Tag(p, channel.RandomReferences(60, 100, uint64(10+i)))...)
	}
	sim := channel.Simulator{
		Channel:  channel.NewNaive("seq", channel.NanoporeMix(0.04)),
		Coverage: channel.FixedCoverage(14),
	}
	readout := sim.Simulate("readout", tagged, 5).AllReads(rng.New(6))
	pools := map[string][]dna.Strand{
		"readout": readout,
		"short":   append([]dna.Strand{"ACG", ""}, readout[:700]...),
		"other":   channel.RandomReferences(1500, 40, 7),
		"empty":   nil,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for name, pool := range pools {
			for _, mm := range []int{0, 2, 6} {
				got := codec.SelectAmplify(pool, lib[1], mm)
				want := refSelectAmplify(pool, lib[1], mm)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("procs=%d %s mismatch=%d: %d reads amplified, reference %d (or order differs)",
						procs, name, mm, len(got), len(want))
				}
				if name == "readout" && mm == 6 && len(want) < 700 {
					t.Fatalf("readout amplified only %d reads: too few to span several chunks", len(want))
				}
			}
		}
	}
}
