package channel

import (
	"math"
	"strings"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestNewHomopolymerModelValidation(t *testing.T) {
	base := NewNaive("b", EqualMix(0.05))
	if _, err := NewHomopolymerModel(nil, 2, 3); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewHomopolymerModel(base, 0.5, 3); err == nil {
		t.Error("boost < 1 accepted")
	}
	h, err := NewHomopolymerModel(base, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.MinRun != 3 {
		t.Errorf("default MinRun = %d", h.MinRun)
	}
	if !strings.Contains(h.Name(), "homopolymer") {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestHomopolymerBoostConcentratesErrors(t *testing.T) {
	base := NewNaive("b", Rates{Sub: 0.06})
	h, err := NewHomopolymerModel(base, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Strand: 40 non-run bases, a 20-base A-run, 40 more non-run bases.
	prefix := dna.Strand(strings.Repeat("ACGT", 10))
	run := dna.Repeat(dna.A, 20)
	ref := prefix + run + prefix
	r := rng.New(1)
	inRun, outRun := 0, 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		read := Transmit(h, ref, r)
		for p := 0; p < ref.Len(); p++ {
			if read[p] != ref[p] {
				if p >= 40 && p < 60 {
					inRun++
				} else {
					outRun++
				}
			}
		}
	}
	inRate := float64(inRun) / (20 * trials)
	outRate := float64(outRun) / (80 * trials)
	ratio := inRate / outRate
	if ratio < 3 || ratio > 5 {
		t.Errorf("in-run/out-run error ratio = %v, want ≈4", ratio)
	}
}

func TestHomopolymerBoostPreservesAggregate(t *testing.T) {
	base := NewNaive("b", EqualMix(0.06))
	h, err := NewHomopolymerModel(base, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// References with plenty of runs.
	r := rng.New(2)
	var refs []dna.Strand
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		for sb.Len() < 110 {
			b := dna.Base(r.Intn(dna.NumBases))
			runLen := 1 + r.Intn(5)
			for k := 0; k < runLen && sb.Len() < 110; k++ {
				sb.WriteByte(b.Byte())
			}
		}
		refs = append(refs, dna.Strand(sb.String()))
	}
	dBase, dBoost := 0, 0
	for _, ref := range refs {
		dBase += align.Distance(string(ref), string(Transmit(base, ref, r)))
		dBoost += align.Distance(string(ref), string(Transmit(h, ref, r)))
	}
	ratio := float64(dBoost) / float64(dBase)
	if math.Abs(ratio-1) > 0.12 {
		t.Errorf("boost changed aggregate error mass: ratio %v", ratio)
	}
	if math.Abs(h.AggregateRate()-base.AggregateRate()) > 1e-12 {
		t.Error("AggregateRate differs")
	}
}

func TestHomopolymerNoRunsPassThrough(t *testing.T) {
	base := NewNaive("b", Rates{Sub: 0.1})
	h, _ := NewHomopolymerModel(base, 3, 3)
	ref := dna.Strand(strings.Repeat("ACGT", 25)) // no runs >= 3
	a := Transmit(h, ref, rng.New(7))
	b := Transmit(base, ref, rng.New(7))
	if a != b {
		t.Error("no-run strand should use the base model verbatim")
	}
}

func TestGCBiasCoverage(t *testing.T) {
	bias := GCBiasCoverage{Base: FixedCoverage(40), Strength: 2}
	r := rng.New(3)
	balanced := dna.Strand(strings.Repeat("ACGT", 25)) // GC 0.5
	extreme := dna.Strand(strings.Repeat("GGCC", 25))  // GC 1.0
	moderate := dna.Strand(strings.Repeat("GACG", 25)) // GC 0.75
	sum := func(ref dna.Strand) float64 {
		total := 0
		for i := 0; i < 2000; i++ {
			total += bias.Sample(ref, i, r)
		}
		return float64(total) / 2000
	}
	b, m, e := sum(balanced), sum(moderate), sum(extreme)
	if math.Abs(b-40) > 1 {
		t.Errorf("balanced coverage = %v, want ~40", b)
	}
	if !(b > m && m > e) {
		t.Errorf("coverage not monotone in GC deviation: %v, %v, %v", b, m, e)
	}
	// exp(-2*1) ≈ 0.135 of 40 ≈ 5.4 for the extreme strand.
	if math.Abs(e-40*math.Exp(-2)) > 1 {
		t.Errorf("extreme coverage = %v, want ≈%v", e, 40*math.Exp(-2))
	}
	// A GC-balanced reference passes the base count through unthinned.
	if bias.Sample(balanced, 0, r) != 40 {
		t.Error("Sample should pass a balanced strand's base count through")
	}
	if !strings.Contains(bias.Name(), "gcbias") {
		t.Errorf("Name = %q", bias.Name())
	}
	// Zero strength is a no-op.
	noop := GCBiasCoverage{Base: FixedCoverage(7)}
	if noop.Sample(extreme, 0, r) != 7 {
		t.Error("zero strength should not thin")
	}
}

func TestSimulatorUsesRefAwareCoverage(t *testing.T) {
	refs := []dna.Strand{
		dna.Strand(strings.Repeat("ACGT", 25)), // balanced
		dna.Strand(strings.Repeat("GGCC", 25)), // extreme GC
	}
	sim := Simulator{
		Channel:  NewNaive("n", Rates{}),
		Coverage: GCBiasCoverage{Base: FixedCoverage(30), Strength: 3},
	}
	ds := sim.Simulate("gc", refs, 5)
	if ds.Clusters[0].Coverage() <= ds.Clusters[1].Coverage() {
		t.Errorf("extreme-GC strand (%d reads) should be thinned vs balanced (%d)",
			ds.Clusters[1].Coverage(), ds.Clusters[0].Coverage())
	}
}

// TestGCBiasSurvivesCoverageWrappers is the wrapper regression: a
// coverage wrapper must hand the reference down, or the GC bias it wraps
// silently disappears. ErasureCoverage once sampled its base without the
// reference, and GCBiasCoverage fell back to its unbiased base when it had
// none, so on all-GC references FixedCoverage(20) at Strength 3 gave about
// 1 read per cluster bare but 20 under either wrapper.
func TestGCBiasSurvivesCoverageWrappers(t *testing.T) {
	bias := GCBiasCoverage{Base: FixedCoverage(20), Strength: 3}
	refs := make([]dna.Strand, 400)
	for i := range refs {
		refs[i] = dna.Strand(strings.Repeat("GC", 55))
	}
	// exp(-3) of 20 reads survive on average; the wrapped composition must
	// thin just like the bare model.
	want := 20 * math.Exp(-3)
	for _, cov := range []CoverageModel{
		bias,
		ErasureCoverage{Base: bias, P: 0},
		GCBiasCoverage{Base: bias, Strength: 0},
	} {
		ds := Simulator{Channel: NewNaive("n", Rates{}), Coverage: cov}.Simulate("gc", refs, 9)
		total := 0
		for _, c := range ds.Clusters {
			total += c.Coverage()
		}
		if mean := float64(total) / float64(len(refs)); math.Abs(mean-want) > 0.3 {
			t.Errorf("%s: mean reads per all-GC cluster = %.2f, want ≈%.2f", cov.Name(), mean, want)
		}
	}
}
