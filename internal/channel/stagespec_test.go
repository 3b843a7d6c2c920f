package channel

import (
	"strings"
	"testing"
	"unsafe"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestParseStagesRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"",
		"synthesis=0.0118",
		"pcr=30:0.0001",
		"pcr=30:0.0001:0.02",
		"aging=100:3e-05",
		"aging=100:3e-05:0.00133",
		"sequencing=0.0413",
		"sequencing=0.0413:terminal-skew",
		"naive=0.02:0.01:0.03",
		"synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew",
		"dropout=0.1",
		"zerocov=10:5",
		"truncate=0.3",
		"truncate=0.3:0.5",
		"contam=0.02",
		"chimera=0.05",
		"naive=0.01:0:0.02,chimera=0.1,dropout=0.1,dropout=0.2,contam=0.02,truncate=0.3:0.5",
	} {
		list, err := ParseStages(spec)
		if err != nil {
			t.Fatalf("ParseStages(%q): %v", spec, err)
		}
		if got := list.String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
		list2, err := ParseStages(list.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", list.String(), err)
		}
		if len(list2) != len(list) {
			t.Errorf("%q: re-parse changed stage count", spec)
		}
	}
}

func TestParseStagesRejects(t *testing.T) {
	for _, spec := range []string{
		"synthesis",                // not key=value
		"warp=0.1",                 // unknown stage
		"synthesis=NaN",            // NaN rate
		"synthesis=-0.1",           // negative
		"synthesis=1.5",            // > 1
		"pcr=30",                   // missing sub rate
		"pcr=x:0.1",                // bad cycles
		"pcr=-3:0.1",               // negative cycles
		"pcr=30:0.1:0.2:0.3",       // too many fields
		"aging=100",                // missing rate
		"aging=-1:0.1",             // negative years
		"sequencing=0.04:sideways", // unknown spatial
		"naive=0.1:0.1",            // missing del
		"dropout",                  // not key=value
		"dropout=1.5",              // > 1
		"dropout=-0.1",             // negative
		"dropout=x",                // not a number
		"truncate=0.3:1.5",         // min fraction >= 1
		"zerocov=5",                // missing length
		"zerocov=-1:3",             // negative start
		"zerocov=2:0",              // empty region
		"chimera=1.5",              // > 1
	} {
		if _, err := ParseStages(spec); err == nil {
			t.Errorf("ParseStages(%q) accepted", spec)
		}
	}
}

// TestParseStagesRejectsOverfullRates: each field is in range, but the
// built stage's per-base rates are not — the flat sub/ins/del channel
// refuses the same rates through Rates.Validate, so the DSL must too
// instead of letting the transmit plan clamp every position to 0.99.
func TestParseStagesRejectsOverfullRates(t *testing.T) {
	for _, spec := range []string{
		"naive=0.5:0.5:0.5", // aggregate 1.5
		"pcr=30:0.5",        // 30 cycles × 0.5 = 15
		"aging=100:0.5",     // 100 years × 0.5 = 50
		"synthesis=1",       // del+ins+sub = 1
		"sequencing=1",      // Nanopore mix sums to 1
	} {
		if _, err := ParseStages(spec); err == nil {
			t.Errorf("ParseStages(%q) accepted a channel Rates.Validate rejects", spec)
		}
	}
}

// TestParseStagesFaultDirectives: the fault and chimera directives parse
// into their fields and render back.
func TestParseStagesFaultDirectives(t *testing.T) {
	list, err := ParseStages("dropout=0.1,truncate=0.3:0.5,contam=0.02,zerocov=10:5,chimera=0.05")
	if err != nil {
		t.Fatal(err)
	}
	want := StageList{
		{Kind: "dropout", P: 0.1},
		{Kind: "truncate", P: 0.3, MinFrac: 0.5},
		{Kind: "contam", P: 0.02},
		{Kind: "zerocov", Start: 10, Len: 5},
		{Kind: "chimera", P: 0.05},
	}
	if len(list) != len(want) {
		t.Fatalf("ParseStages = %+v, want %+v", list, want)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Errorf("stage %d = %+v, want %+v", i, list[i], want[i])
		}
	}
	if list.Empty() {
		t.Error("populated list reported Empty")
	}
	again, err := ParseStages(list.String())
	if err != nil || len(again) != len(list) {
		t.Fatalf("round trip %q -> %+v (%v)", list.String(), again, err)
	}
	for i := range list {
		if again[i] != list[i] {
			t.Errorf("round trip stage %d = %+v, want %+v", i, again[i], list[i])
		}
	}
	if l, err := ParseStages("  "); err != nil || !l.Empty() {
		t.Errorf("blank spec: %+v, %v", l, err)
	}
	if l, err := ParseStages("truncate=0.4"); err != nil || l[0].P != 0.4 || l[0].MinFrac != 0 {
		t.Errorf("truncate=0.4: %+v, %v", l, err)
	}
	pipe := list.Build("faults")
	for i, want := range []string{"dropout(0.1)", "truncate(0.3:0.5)", "contam(0.02)", "zerocov(10:5)", "chimera(0.05)"} {
		if got := pipe.Stages[i].Name(); got != want {
			t.Errorf("stage %d name = %q, want %q", i, got, want)
		}
	}
}

func TestStageListBuild(t *testing.T) {
	list, err := ParseStages("synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew")
	if err != nil {
		t.Fatal(err)
	}
	pipe := list.Build("dsl")
	if pipe.Name() != "dsl" {
		t.Errorf("pipeline name = %q", pipe.Name())
	}
	if len(pipe.Stages) != 4 {
		t.Fatalf("built %d stages", len(pipe.Stages))
	}
	if _, ok := pipe.Stages[1].(*PCRAmplification); !ok {
		t.Errorf("pcr with EFFSD built %T, want *PCRAmplification", pipe.Stages[1])
	}
	if _, ok := pipe.Stages[2].(*AgingStage); !ok {
		t.Errorf("aging with BREAK built %T, want *AgingStage", pipe.Stages[2])
	}
	cov := pipe.BindCoverage(FixedCoverage(10))
	if !strings.Contains(cov.Name(), "+pool(") {
		t.Errorf("pool stages not bound: %q", cov.Name())
	}

	// Strand-only variants of the same stages must not wrap coverage.
	strandOnly, err := ParseStages("pcr=30:0.0001,aging=100:3e-05")
	if err != nil {
		t.Fatal(err)
	}
	if cov := strandOnly.Build("s").BindCoverage(FixedCoverage(10)); cov.Name() != FixedCoverage(10).Name() {
		t.Errorf("strand-only DSL pipeline wrapped coverage: %q", cov.Name())
	}

	// The built pipeline transmits.
	ref := RandomReferences(1, 110, 3)[0]
	if err := Transmit(pipe, ref, rng.New(5)).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStageListBuildMatchesPhysicalPipeline: the DSL rendering of the
// physical pipeline builds a channel with identical output to the
// constructor, so specs and code name the same channel.
func TestStageListBuildMatchesPhysicalPipeline(t *testing.T) {
	want := NewPhysicalPipeline("p", 0.059, 100)
	// Constructor rates, spelled in the DSL.
	list, err := ParseStages("synthesis=0.0118,pcr=30:9.833333333333334e-05:0.02,aging=100:2.9500000000000004e-05:0.00133,sequencing=0.0413:terminal-skew")
	if err != nil {
		t.Fatal(err)
	}
	got := list.Build("p")
	ref := RandomReferences(1, 110, 7)[0]
	r1, r2 := rng.New(9), rng.New(9)
	a, b := Transmit(want, ref, r1), Transmit(got, ref, r2)
	if a != b {
		t.Errorf("DSL pipeline output differs from constructor:\n%q\n%q", a, b)
	}
	c1 := want.BindCoverage(FixedCoverage(50)).Sample("", 3, rng.New(11))
	c2 := got.BindCoverage(FixedCoverage(50)).Sample("", 3, rng.New(11))
	if c1 != c2 {
		t.Errorf("DSL pool coverage %d differs from constructor %d", c2, c1)
	}
}

// FuzzParseStages hardens the stages DSL parser, which reads operator
// input directly from -stages, -faults and job specs. Arbitrary strings
// must either parse into a list that round-trips exactly through String
// and builds a working simulator, or error cleanly — never panic, and
// never accept out-of-range probabilities or regions.
func FuzzParseStages(f *testing.F) {
	f.Add("synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew")
	f.Add("naive=0.02:0.01:0.03")
	f.Add("pcr=30:0.0001")
	f.Add("")
	// Every kind, mixed shapes, and the rate bound. The -faults subset
	// of the DSL has its own seeds in internal/faults (FuzzParseSpec).
	f.Add("chimera=0.1")
	f.Add("naive=0:0:0,chimera=1,chimera=0.5")
	f.Add("contam=1,truncate=0.3")
	f.Add("zerocov=9223372036854775807:1")
	f.Add("naive=0.5:0.5:0.5")
	f.Add("sequencing=0.2:v-shape,dropout=0.05,chimera=0.02")
	f.Fuzz(func(t *testing.T, s string) {
		list, err := ParseStages(s)
		if err != nil {
			if list != nil {
				t.Errorf("ParseStages(%q) errored but returned %+v", s, list)
			}
			return
		}
		// Accepted stages must be in range: the stages treat these as
		// probabilities and slice bounds without re-validating.
		for _, sp := range list {
			if sp.P < 0 || sp.P > 1 || sp.P != sp.P {
				t.Errorf("ParseStages(%q) accepted P = %v", s, sp.P)
			}
			if sp.MinFrac != 0 && (sp.MinFrac <= 0 || sp.MinFrac >= 1) {
				t.Errorf("ParseStages(%q) accepted MinFrac = %v", s, sp.MinFrac)
			}
			if sp.Start < 0 || sp.Len < 0 || (sp.Kind == "zerocov" && sp.Len == 0) {
				t.Errorf("ParseStages(%q) accepted zerocov %d:%d", s, sp.Start, sp.Len)
			}
		}
		// String must render a list that parses back to the same value —
		// the CLIs echo specs and the server persists them in job specs.
		again, err := ParseStages(list.String())
		if err != nil {
			t.Fatalf("String() output %q does not re-parse: %v", list.String(), err)
		}
		if len(again) != len(list) {
			t.Fatalf("round trip changed stage count: %d -> %d", len(list), len(again))
		}
		for i := range list {
			if again[i] != list[i] {
				t.Fatalf("round trip mismatch: %q -> %+v -> %q -> %+v", s, list[i], list.String(), again[i])
			}
		}
		pipe := list.Build("fuzz")
		ref := RandomReferences(1, 40, 1)[0]
		if err := Transmit(pipe, ref, rng.New(1)).Validate(); err != nil {
			t.Fatalf("built pipeline emits invalid reads: %v", err)
		}
		// Every strand stage goes through the one Transmit path: valid
		// ACGT out, never an alias of the caller's strand.
		const fixed = dna.Strand("ACGTTGCAAGCTTCGAATGC")
		for _, st := range pipe.Stages {
			ch, ok := st.(Channel)
			if !ok {
				continue
			}
			out := Transmit(ch, fixed, rng.New(2))
			if err := out.Validate(); err != nil {
				t.Fatalf("stage %s emits invalid reads: %v", ch.Name(), err)
			}
			if out.Len() > 0 && unsafe.StringData(string(out)) == unsafe.StringData(string(fixed)) {
				t.Fatalf("stage %s: Transmit returned an alias of the caller's strand", ch.Name())
			}
		}
		// Pool and template stages act only through a simulation run.
		ch, cov := Compose(pipe, FixedCoverage(2), nil)
		ds := Simulator{Channel: ch, Coverage: cov}.Simulate("fuzz", RandomReferences(3, 20, 2), 1)
		for _, c := range ds.Clusters {
			for _, read := range c.Reads {
				if err := read.Validate(); err != nil {
					t.Fatalf("simulated read invalid: %v", err)
				}
			}
		}
	})
}
