package store

import (
	"bytes"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/codec"
	"dnastore/internal/dist"
)

func testPool(t *testing.T) *Pool {
	t.Helper()
	return New(Options{
		Archive: codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6},
		Seed:    7,
	})
}

func TestStoreAndRetrieveThroughNoise(t *testing.T) {
	p := testPool(t)
	docs := map[string][]byte{
		"alpha": bytes.Repeat([]byte("first object payload. "), 12),
		"beta":  bytes.Repeat([]byte("second object, different content! "), 9),
	}
	for k, v := range docs {
		if err := p.Store(k, v); err != nil {
			t.Fatalf("Store(%q): %v", k, err)
		}
	}
	if got := p.Keys(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Keys = %v", got)
	}
	if p.NumStrands() == 0 {
		t.Fatal("no designed strands")
	}

	ch := channel.NewNaive("seq", channel.NanoporeMix(0.02)).WithSpatial(dist.NanoporeSkew())
	reads := p.Sequence(ch, channel.FixedCoverage(12), 99)

	for k, want := range docs {
		got, err := p.Retrieve(k, reads)
		if err != nil {
			t.Fatalf("Retrieve(%q): %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Retrieve(%q): payload corrupted", k)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	p := testPool(t)
	if err := p.Store("", []byte("x")); err == nil {
		t.Error("empty key accepted")
	}
	if err := p.Store("k", nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := p.Store("k", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("k", []byte("other")); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestRetrieveUnknownKey(t *testing.T) {
	p := testPool(t)
	if _, err := p.Retrieve("ghost", nil); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestRetrieveNoReads(t *testing.T) {
	p := testPool(t)
	if err := p.Store("k", []byte("payload data payload data")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Retrieve("k", nil); err == nil {
		t.Error("retrieval with no reads succeeded")
	}
}

func TestPrimersAreDistinct(t *testing.T) {
	p := testPool(t)
	for i := 0; i < 6; i++ {
		if err := p.Store(string(rune('a'+i)), bytes.Repeat([]byte{byte(i + 1)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, pr := range p.primers {
		if seen[string(pr)] {
			t.Fatal("duplicate primer issued")
		}
		seen[string(pr)] = true
	}
	// Pairwise distance must exceed twice the mismatch budget.
	for i := range p.primers {
		for j := i + 1; j < len(p.primers); j++ {
			if align.Similar(string(p.primers[i]), string(p.primers[j]), 2*p.opts.PrimerMismatch+1) {
				t.Errorf("primers %d and %d too close", i, j)
			}
		}
	}
}

func TestSelectiveAmplificationIsolation(t *testing.T) {
	// Retrieving one key must not be corrupted by the other object's
	// strands sharing the pool.
	p := testPool(t)
	a := bytes.Repeat([]byte("AAAA-object "), 10)
	b := bytes.Repeat([]byte("BBBB-object "), 10)
	if err := p.Store("a", a); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("b", b); err != nil {
		t.Fatal(err)
	}
	// Clean channel isolates the clustering/selection logic.
	reads := p.Sequence(channel.NewNaive("clean", channel.Rates{}), channel.FixedCoverage(5), 3)
	got, err := p.Retrieve("a", reads)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Error("object a corrupted in mixed pool")
	}
}
