package faults

import (
	"testing"

	"dnastore/internal/channel"
)

// FuzzParseSpec hardens the -faults spec: operator text parsed by
// channel.ParseStages and appended after a working channel with
// channel.Compose, as dnasim, dnastore get and the job specs do.
// Arbitrary strings must either parse into stages that round-trip through
// String and simulate deterministically after the channel, or error
// cleanly; never panic, and never accept out-of-range probabilities or
// regions that the stages would misbehave on.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("dropout=0.1")
	f.Add("dropout=0.1,truncate=0.3:0.5,contam=0.02,zerocov=10:5")
	f.Add("truncate=1")
	f.Add("truncate=0.5:0.99")
	f.Add("zerocov=0:1")
	f.Add("dropout=1.5")
	f.Add("dropout=-1")
	f.Add("dropout=NaN")
	f.Add("truncate=0.5:nope")
	f.Add("zerocov=5")
	f.Add("zerocov=-1:3")
	f.Add("bogus=1")
	f.Add("dropout")
	f.Add(",,,")
	f.Add("dropout=0.1,dropout=0.2")
	f.Add(" dropout = 0.5 ")
	f.Add("truncate=1e-300:0.5,contam=0x1p-3")

	f.Fuzz(func(t *testing.T, s string) {
		list, err := channel.ParseStages(s)
		if err != nil {
			if list != nil {
				t.Errorf("ParseStages(%q) errored but returned %+v", s, list)
			}
			return
		}
		// Accepted specs must be in range: the stages treat these as
		// probabilities and slice bounds without re-validating.
		for _, sp := range list {
			if sp.P < 0 || sp.P > 1 || sp.P != sp.P {
				t.Errorf("ParseStages(%q) accepted P = %v", s, sp.P)
			}
			if sp.MinFrac != 0 && (sp.MinFrac <= 0 || sp.MinFrac >= 1) {
				t.Errorf("ParseStages(%q) accepted MinFrac = %v", s, sp.MinFrac)
			}
			if sp.Start < 0 || sp.Len < 0 {
				t.Errorf("ParseStages(%q) accepted negative zerocov %d:%d", s, sp.Start, sp.Len)
			}
		}
		// String must render a spec that parses back to the same value —
		// the CLIs echo specs and the server persists them in job specs.
		rt, err := channel.ParseStages(list.String())
		if err != nil {
			t.Fatalf("round-trip ParseStages(%q -> %q) failed: %v", s, list.String(), err)
		}
		if len(rt) != len(list) {
			t.Fatalf("round trip changed stage count: %q -> %d -> %q -> %d", s, len(list), list.String(), len(rt))
		}
		for i := range list {
			if rt[i] != list[i] {
				t.Fatalf("round-trip mismatch: %q -> %+v -> %q -> %+v", s, list[i], list.String(), rt[i])
			}
		}
		// Appended after a channel, the spec must simulate valid reads and
		// the same dataset for the same seed: faulted runs are replayed,
		// sharded and checkpoint-resumed on that promise.
		refs := channel.RandomReferences(4, 30, 3)
		run := func() [][]string {
			ch, cov := channel.Compose(channel.NewNaive("n", channel.EqualMix(0.02)), channel.FixedCoverage(3), list)
			ds := channel.Simulator{Channel: ch, Coverage: cov}.Simulate("fuzz", refs, 5)
			out := make([][]string, len(ds.Clusters))
			for i, c := range ds.Clusters {
				for _, read := range c.Reads {
					if err := read.Validate(); err != nil {
						t.Fatalf("faulted read invalid: %v", err)
					}
					out[i] = append(out[i], string(read))
				}
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("cluster %d: %d reads, then %d on rerun", i, len(a[i]), len(b[i]))
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("cluster %d read %d differs on rerun", i, j)
				}
			}
		}
	})
}
