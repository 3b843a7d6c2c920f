package channel

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// composed parses extra stages and composes them over ch and cov.
func composed(t *testing.T, ch Channel, cov CoverageModel, spec string) Simulator {
	t.Helper()
	extra, err := ParseStages(spec)
	if err != nil {
		t.Fatalf("ParseStages(%q): %v", spec, err)
	}
	ch, cov = Compose(ch, cov, extra)
	return Simulator{Channel: ch, Coverage: cov}
}

// staged builds a stages-DSL pipeline and binds it over cov.
func staged(t *testing.T, spec string, cov CoverageModel) Simulator {
	t.Helper()
	list, err := ParseStages(spec)
	if err != nil {
		t.Fatalf("ParseStages(%q): %v", spec, err)
	}
	ch, cov := Compose(list.Build("staged"), cov, nil)
	return Simulator{Channel: ch, Coverage: cov}
}

func datasetsEqual(a, b *dataset.Dataset) bool {
	if len(a.Clusters) != len(b.Clusters) {
		return false
	}
	for i := range a.Clusters {
		if a.Clusters[i].Ref != b.Clusters[i].Ref || len(a.Clusters[i].Reads) != len(b.Clusters[i].Reads) {
			return false
		}
		for j := range a.Clusters[i].Reads {
			if a.Clusters[i].Reads[j] != b.Clusters[i].Reads[j] {
				return false
			}
		}
	}
	return true
}

func TestInjectorsDeterministic(t *testing.T) {
	refs := RandomReferences(40, 80, 11)
	sim := composed(t, NewNaive("n", EqualMix(0.03)), FixedCoverage(6),
		"dropout=0.15,contam=0.1,truncate=0.3:0.4,zerocov=5:3,chimera=0.1")
	a, err := sim.SimulateCtx(context.Background(), "a", refs, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.SimulateCtx(context.Background(), "b", refs, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(a, b) {
		t.Fatal("same seed + same fault spec produced different datasets")
	}
	c, err := sim.SimulateCtx(context.Background(), "c", refs, 43)
	if err != nil {
		t.Fatal(err)
	}
	if datasetsEqual(a, c) {
		t.Fatal("different seeds produced identical faulted datasets")
	}
}

func TestClusterDropout(t *testing.T) {
	cov := Pipeline{Stages: []Stage{Dropout{P: 0.3}}}.BindCoverage(FixedCoverage(10))
	r := rng.New(7)
	const n = 20000
	zeros := 0
	for i := 0; i < n; i++ {
		v := cov.Sample("", i, r)
		if v == 0 {
			zeros++
		} else if v != 10 {
			t.Fatalf("surviving cluster got coverage %d", v)
		}
	}
	frac := float64(zeros) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("dropout rate = %v, want ~0.3", frac)
	}
	if !strings.Contains(cov.Name(), "dropout") {
		t.Errorf("Name = %q", cov.Name())
	}
}

// TestDropoutOverStochasticCoverage: over a stochastic base the dropout
// draw follows the coverage draw, and the fraction of emptied clusters is
// P within a binomial bound.
func TestDropoutOverStochasticCoverage(t *testing.T) {
	const p, clusters = 0.2, 4000
	refs := RandomReferences(clusters, 20, 5)
	// Poisson(12) leaves a cluster empty with probability e^-12 ≈ 6e-6,
	// so nearly every empty cluster is a dropout.
	ds := composed(t, NewNaive("clean", Rates{}), PoissonCoverage(12), "dropout=0.2").Simulate("d", refs, 3)
	empty := 0
	for _, c := range ds.Clusters {
		if len(c.Reads) == 0 {
			empty++
		}
	}
	frac := float64(empty) / clusters
	if bound := 4 * math.Sqrt(p*(1-p)/clusters); math.Abs(frac-p) > bound {
		t.Errorf("dropout fraction = %.4f, want %.2f ± %.4f", frac, p, bound)
	}
}

func TestZeroCoverageRegionExact(t *testing.T) {
	cov := Pipeline{Stages: []Stage{ZeroCoverage{Start: 10, Len: 5}}}.BindCoverage(FixedCoverage(4))
	r := rng.New(3)
	for i := 0; i < 30; i++ {
		got := cov.Sample("", i, r)
		want := 4
		if i >= 10 && i < 15 {
			want = 0
		}
		if got != want {
			t.Errorf("cluster %d coverage = %d, want %d", i, got, want)
		}
	}
}

func TestReadTruncation(t *testing.T) {
	clean := NewNaive("clean", Rates{})
	tr := Pipeline{Stages: []Stage{clean, Truncation{P: 1, MinFrac: 0.5}}}
	ref := RandomReferences(1, 100, 9)[0]
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		read := Transmit(tr, ref, r)
		if read.Len() >= ref.Len() {
			t.Fatalf("read %d not truncated: len %d", i, read.Len())
		}
		if read.Len() < 49 { // minFrac 0.5 of 100, allow the floor
			t.Fatalf("read %d over-truncated: len %d", i, read.Len())
		}
		if ref[:read.Len()] != read {
			t.Fatalf("truncation is not a prefix")
		}
	}
	// P=0 leaves reads alone.
	none := Pipeline{Stages: []Stage{clean, Truncation{P: 0}}}
	if got := Transmit(none, ref, r); got != ref {
		t.Error("P=0 truncation modified the read")
	}
}

func TestContaminationSpike(t *testing.T) {
	cs := Pipeline{Stages: []Stage{NewNaive("clean", Rates{}), Contamination{P: 0.5}}}
	ref := RandomReferences(1, 80, 13)[0]
	r := rng.New(8)
	const n = 4000
	contaminated := 0
	for i := 0; i < n; i++ {
		read := Transmit(cs, ref, r)
		if err := read.Validate(); err != nil {
			t.Fatalf("contaminated read invalid: %v", err)
		}
		if read != ref {
			contaminated++
		}
	}
	frac := float64(contaminated) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("contamination rate = %v, want ~0.5", frac)
	}
}

// TestComposeLayering: without extra stages Compose hands back the
// channel and coverage it was given (binding only a Pipeline's own
// stages); with them, strand stages extend the channel and pool stages
// the coverage, and a Pipeline is flattened so its pool stages are bound
// exactly once.
func TestComposeLayering(t *testing.T) {
	base := NewNaive("base", Rates{})
	cov := FixedCoverage(3)
	ch2, cov2 := Compose(base, cov, nil)
	if ch2 != Channel(base) || cov2 != CoverageModel(cov) {
		t.Error("empty stage list wrapped something")
	}
	extra, err := ParseStages("dropout=0.1,truncate=0.2,contam=0.3,zerocov=1:2")
	if err != nil {
		t.Fatal(err)
	}
	ch3, cov3 := Compose(base, cov, extra)
	if !strings.Contains(ch3.Name(), "truncate") || !strings.Contains(ch3.Name(), "contam") {
		t.Errorf("channel name missing stages: %q", ch3.Name())
	}
	if !strings.Contains(cov3.Name(), "dropout") || !strings.Contains(cov3.Name(), "zerocov") {
		t.Errorf("coverage name missing stages: %q", cov3.Name())
	}

	physical := NewPhysicalPipeline("phys", 0.059, 100)
	ch4, cov4 := Compose(physical, cov, nil)
	if ch4.Name() != physical.Name() || cov4.Name() != physical.BindCoverage(cov).Name() {
		t.Errorf("empty stage list changed a pipeline: %q / %q", ch4.Name(), cov4.Name())
	}
	ch5, cov5 := Compose(physical, cov, extra)
	pipe, ok := ch5.(Pipeline)
	if !ok || len(pipe.Stages) != len(physical.Stages)+len(extra) {
		t.Fatalf("pipeline not flattened: %T %q", ch5, ch5.Name())
	}
	if n := strings.Count(cov5.Name(), "+pool("); n != 1 {
		t.Errorf("pool stages bound %d times: %q", n, cov5.Name())
	}
	if want := "fixed(3)+pool(pcr→storage→dropout(0.1)→zerocov(1:2))"; cov5.Name() != want {
		t.Errorf("coverage = %q, want %q", cov5.Name(), want)
	}
}

// TestFaultedDescribeFencesOldJournals: effects whose draws moved must
// refuse a checkpoint journal written under their old description instead
// of mixing old clusters into a new run.
func TestFaultedDescribeFencesOldJournals(t *testing.T) {
	naive := func() Channel { return NewNaive("golden-naive", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}) }
	refs := RandomReferences(8, 30, 1)
	for _, tc := range []struct {
		spec    string
		cov     CoverageModel
		oldDesc string
	}{
		{"dropout=0.15", NegBinCoverage{Mean: 8, Dispersion: 2.5}, "channel=golden-naive coverage=negbin(μ=8.0,k=2.5)+dropout(0.150)"},
		{"contam=0.1", FixedCoverage(6), "channel=golden-naive+contam(0.100) coverage=fixed(6)"},
		{"chimera=0.1", FixedCoverage(6), "channel=golden-naive coverage=fixed(6)"},
	} {
		desc := composed(t, naive(), tc.cov, tc.spec).Describe()
		if desc == tc.oldDesc {
			t.Errorf("%s: description %q unchanged", tc.spec, desc)
			continue
		}
		path := filepath.Join(t.TempDir(), "old.ckpt")
		old, err := OpenCheckpoint(path, "simulated", refs, 1, tc.oldDesc)
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Commit(0, []dna.Strand{refs[0]}); err != nil {
			t.Fatal(err)
		}
		old.Close()
		if ck, err := OpenCheckpoint(path, "simulated", refs, 1, desc); err == nil {
			ck.Close()
			t.Errorf("%s: journal written as %q resumed under %q", tc.spec, tc.oldDesc, desc)
		}
	}
}

func TestChimeraZeroP(t *testing.T) {
	refs := RandomReferences(20, 60, 1)
	base := Simulator{Channel: NewNaive("n", EqualMix(0.02)), Coverage: FixedCoverage(4)}
	plain := base.Simulate("p", refs, 7)
	chim := composed(t, base.Channel, base.Coverage, "chimera=0").Simulate("c", refs, 7)
	if !datasetsEqual(plain, chim) {
		t.Fatal("P=0 changed reads")
	}
}

// TestChimericSimulatorPanicsOnBadP checks that a hand-built chimera
// stage with a probability outside [0,1] stops the run before any read:
// Simulate panics and SimulateCtx returns the error.
func TestChimericSimulatorPanicsOnBadP(t *testing.T) {
	refs := RandomReferences(2, 20, 5)
	for _, p := range []float64{1.5, -0.1, math.NaN()} {
		pipe := Pipeline{Stages: []Stage{NewNaive("n", Rates{}), Chimera{P: p}}}
		sim := Simulator{Channel: pipe, Coverage: pipe.BindCoverage(FixedCoverage(1))}
		if _, err := sim.SimulateCtx(context.Background(), "bad", refs, 1); err == nil {
			t.Errorf("P=%g: SimulateCtx returned no error", p)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("P=%g: no panic", p)
				}
			}()
			sim.Simulate("bad", refs, 1)
		}()
	}
}

// chimeraPartner reports whether read is ref[:cut] + refs[j][cut:] for
// some cut in [1, len) and some partner j other than own.
func chimeraPartner(read dna.Strand, refs []dna.Strand, own int) bool {
	ref := refs[own]
	if read.Len() != ref.Len() {
		return false
	}
	for cut := 1; cut < ref.Len() && read[cut-1] == ref[cut-1]; cut++ {
		for j, partner := range refs {
			if j != own && read[cut:] == partner[cut:] {
				return true
			}
		}
	}
	return false
}

// TestChimeraStructure checks the template stage on a noiseless channel:
// every changed read is its reference's prefix spliced onto another
// cluster's reference at the same cut, the chimeric fraction is P within a
// binomial bound, and the partner is never the read's own cluster.
func TestChimeraStructure(t *testing.T) {
	const p = 0.2
	refs := RandomReferences(60, 110, 2)
	ds := staged(t, "naive=0:0:0,chimera=0.2", FixedCoverage(20)).Simulate("c", refs, 9)
	total, changed := 0, 0
	for i, c := range ds.Clusters {
		for _, read := range c.Reads {
			total++
			if read == refs[i] {
				continue
			}
			changed++
			if !chimeraPartner(read, refs, i) {
				t.Fatalf("cluster %d: read %q is not ref[:cut]+partner[cut:]", i, read)
			}
		}
	}
	frac := float64(changed) / float64(total)
	if bound := 4 * math.Sqrt(p*(1-p)/float64(total)); math.Abs(frac-p) > bound {
		t.Errorf("chimeric fraction = %.4f, want %.2f ± %.4f", frac, p, bound)
	}

	// Homopolymer references differ from each other at every position, so
	// at P=1 a read equal to its reference would mean a self-partner.
	homo := []dna.Strand{"AAAAAAAAAA", "CCCCCCCCCC", "GGGGGGGGGG", "TTTTTTTTTT"}
	ds = staged(t, "chimera=1", FixedCoverage(50)).Simulate("h", homo, 4)
	for i, c := range ds.Clusters {
		for _, read := range c.Reads {
			if !chimeraPartner(read, homo, i) {
				t.Fatalf("cluster %d: read %q has no partner from another cluster", i, read)
			}
		}
	}
}

func TestChimeraLengthNearDesign(t *testing.T) {
	refs := RandomReferences(10, 110, 3)
	ds := composed(t, NewNaive("clean", Rates{}), FixedCoverage(6), "chimera=1").Simulate("c", refs, 11)
	for _, c := range ds.Clusters {
		for _, read := range c.Reads {
			if read.Len() < 100 || read.Len() > 120 {
				t.Fatalf("chimera length %d far from design 110", read.Len())
			}
			if err := read.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestChimerasRaiseApparentError(t *testing.T) {
	refs := RandomReferences(50, 110, 4)
	base := Simulator{Channel: NewNaive("n", EqualMix(0.02)), Coverage: FixedCoverage(5)}
	plain := base.Simulate("p", refs, 13)
	chim := composed(t, base.Channel, base.Coverage, "chimera=0.15").Simulate("c", refs, 13)
	dPlain, dChim := 0, 0
	for i := range plain.Clusters {
		for k := range plain.Clusters[i].Reads {
			dPlain += align.Distance(string(refs[i]), string(plain.Clusters[i].Reads[k]))
			dChim += align.Distance(string(refs[i]), string(chim.Clusters[i].Reads[k]))
		}
	}
	if dChim <= dPlain*2 {
		t.Errorf("chimeras did not raise apparent error: %d vs %d", dChim, dPlain)
	}
}

// TestChimeraShardable: the template stage draws from the per-cluster RNG
// against the whole reference set, so range shards concatenate to the
// whole run byte for byte under any worker count.
func TestChimeraShardable(t *testing.T) {
	const seed, k = 5, 23
	refs := RandomReferences(61, 90, 8)
	sim := composed(t, NewNaive("n", EqualMix(0.02)), NegBinCoverage{Mean: 5, Dispersion: 2.5}, "chimera=0.1")
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(workers)
		full, err := sim.SimulateCtx(context.Background(), "simulated", refs, seed)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sim.SimulateRange(context.Background(), "simulated", refs, seed, 0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.SimulateRange(context.Background(), "simulated", refs, seed, k, len(refs)-k, nil)
		if err != nil {
			t.Fatal(err)
		}
		whole := writeBytes(t, full)
		if got := append(writeBytes(t, a), writeBytes(t, b)...); !bytes.Equal(got, whole) {
			t.Fatalf("workers=%d: shards [0,%d)+[%d,%d) differ from the whole run", workers, k, k, len(refs))
		}
		if want == nil {
			want = whole
		} else if !bytes.Equal(whole, want) {
			t.Fatalf("workers=%d: whole run differs from workers=1", workers)
		}
	}
}
