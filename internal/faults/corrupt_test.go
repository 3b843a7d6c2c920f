package faults

import (
	"bytes"
	"testing"

	"dnastore/internal/rng"
)

func TestCorruptPoolDeterministic(t *testing.T) {
	data := []byte(`{"version":1,"objects":[{"key":"x","primer":"ACGT","strands":["ACGT"]}]}`)
	for _, mode := range []CorruptMode{CorruptFlipBytes, CorruptTruncate, CorruptGarbageHead} {
		a := CorruptPool(data, mode, 4, rng.New(9))
		b := CorruptPool(data, mode, 4, rng.New(9))
		if !bytes.Equal(a, b) {
			t.Errorf("mode %d not deterministic", mode)
		}
		if bytes.Equal(a, data) && mode != CorruptTruncate {
			t.Errorf("mode %d left data untouched", mode)
		}
	}
	// The input must never be modified.
	orig := append([]byte(nil), data...)
	CorruptPool(data, CorruptFlipBytes, 8, rng.New(2))
	if !bytes.Equal(data, orig) {
		t.Error("CorruptPool modified its input")
	}
	// Empty input is a no-op.
	if out := CorruptPool(nil, CorruptFlipBytes, 1, rng.New(1)); len(out) != 0 {
		t.Error("empty input grew")
	}
}
