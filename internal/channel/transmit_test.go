package channel_test

// External test package: the table includes a faults drill wrapper, and
// faults imports channel.

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"dnastore/internal/channel"
	"dnastore/internal/faults"
	"dnastore/internal/rng"
)

// mustStage builds the single strand stage of a one-directive spec.
func mustStage(t *testing.T, spec string) channel.Channel {
	t.Helper()
	list, err := channel.ParseStages(spec)
	if err != nil {
		t.Fatal(err)
	}
	return list.Build("").Stages[0].(channel.Channel)
}

// TestPipelineZeroStagesReturnsFreshStrand is the alias regression: every
// strand stage at zero-effect parameters is the identity channel, but its
// output through Transmit must still have fresh backing. A pipeline with
// no strand stages once returned the caller's ref directly, and
// Truncation returned ref[:n] when it did not cut, so a caller mutating a
// buffer it had converted to the reference Strand would silently corrupt
// "transmitted" reads.
func TestPipelineZeroStagesReturnsFreshStrand(t *testing.T) {
	ref := channel.RandomReferences(1, 80, 41)[0]
	for _, tc := range []struct {
		name string
		ch   channel.Channel
	}{
		{"pipeline-empty", channel.Pipeline{Label: "empty"}},
		{"pipeline-pool-only", channel.Pipeline{Stages: []channel.Stage{channel.NewPCRAmplification(30, 0, 0.02)}}},
		{"naive=0:0:0", mustStage(t, "naive=0:0:0")},
		{"truncate=0", mustStage(t, "truncate=0")},
		{"contam=0", mustStage(t, "contam=0")},
		{"dnasimulator-zero", channel.NewDNASimulator("zero", channel.BaseErrorRates{})},
		{"flakypanic-spent", faults.FlakyPanic{Base: mustStage(t, "naive=0:0:0"), Remaining: new(atomic.Int64)}},
	} {
		out := channel.Transmit(tc.ch, ref, rng.New(1))
		if out != ref {
			t.Errorf("%s: identity channel altered the read", tc.name)
			continue
		}
		if unsafe.StringData(string(out)) == unsafe.StringData(string(ref)) {
			t.Errorf("%s: Transmit returned an alias of the caller's reference", tc.name)
		}
	}

	// The append path must copy faithfully and consume no draws.
	var scr channel.Scratch
	r1, r2 := rng.New(3), rng.New(3)
	codes := scr.RefBases(ref)
	dst := channel.Pipeline{}.AppendTransmit(nil, codes, r1, &scr)
	if string(dst) != string(ref) {
		t.Error("zero-stage AppendTransmit is not a faithful copy")
	}
	if r1.Uint64() != r2.Uint64() {
		t.Error("zero-stage AppendTransmit consumed RNG draws")
	}
}
