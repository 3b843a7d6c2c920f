package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"

	"dnastore/internal/dataset"
	"dnastore/internal/dna"
)

// The output checks. Each returns nil when the output is correct; a
// non-nil error counts the operation as failed.

// checkSimulated checks a simulated dataset: every strand is valid DNA,
// the references come back in the order given, and the serialised form
// reads back to the same dataset.
func checkSimulated(refs []dna.Strand, ds *dataset.Dataset, written []byte) error {
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	if len(ds.Clusters) != len(refs) {
		return fmt.Errorf("simulate: %d clusters for %d references", len(ds.Clusters), len(refs))
	}
	for i, c := range ds.Clusters {
		if c.Ref != refs[i] {
			return fmt.Errorf("simulate: cluster %d does not echo its reference", i)
		}
	}
	back, err := dataset.Read(bytes.NewReader(written))
	if err != nil {
		return fmt.Errorf("simulate: reading the written dataset: %w", err)
	}
	if err := sameDataset(ds, back); err != nil {
		return fmt.Errorf("simulate: write→read round trip: %w", err)
	}
	return nil
}

// sameDataset reports the first difference between two datasets.
func sameDataset(a, b *dataset.Dataset) error {
	if len(a.Clusters) != len(b.Clusters) {
		return fmt.Errorf("%d clusters vs %d", len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Clusters {
		ca, cb := a.Clusters[i], b.Clusters[i]
		if ca.Ref != cb.Ref || len(ca.Reads) != len(cb.Reads) {
			return fmt.Errorf("cluster %d differs", i)
		}
		for j := range ca.Reads {
			if ca.Reads[j] != cb.Reads[j] {
				return fmt.Errorf("cluster %d read %d differs", i, j)
			}
		}
	}
	return nil
}

// rateTolerance is the relative distance allowed between the error rate
// profiled from the wetlab dataset and the rate it was generated with.
const rateTolerance = 0.15

// The reconstructors' documented length contract: an estimate may run
// short (copies exhausted) or long (refinement insertions) but stays near
// the designed length. recon's TestOutputLengthNearDesignLength accepts
// 90–120 bases for a 110-base design; the same fractions apply here.
const (
	minLenFrac = 90.0 / 110
	maxLenFrac = 120.0 / 110
)

// checkEvaluate checks one calibrate-and-evaluate pass: the fitted
// aggregate error rate lies within rateTolerance of the wetlab rate, and
// every reconstruction of a non-empty cluster keeps the length contract
// (an empty cluster reconstructs to the empty strand).
func checkEvaluate(fitted, want float64, ds *dataset.Dataset, recons ...[]dna.Strand) error {
	if math.IsNaN(fitted) || math.Abs(fitted-want) > rateTolerance*want {
		return fmt.Errorf("evaluate: fitted error rate %.4f not within %.0f%% of %.4f", fitted, 100*rateTolerance, want)
	}
	for _, rs := range recons {
		if len(rs) != len(ds.Clusters) {
			return fmt.Errorf("evaluate: %d reconstructions for %d clusters", len(rs), len(ds.Clusters))
		}
		for i, c := range ds.Clusters {
			n, design := rs[i].Len(), c.Ref.Len()
			if len(c.Reads) == 0 {
				if n != 0 {
					return fmt.Errorf("evaluate: empty cluster %d reconstructed to %d bases", i, n)
				}
				continue
			}
			if float64(n) < minLenFrac*float64(design) || float64(n) > maxLenFrac*float64(design) {
				return fmt.Errorf("evaluate: cluster %d reconstructed to %d bases, designed %d", i, n, design)
			}
		}
	}
	return nil
}

// lengthMisses counts reconstructions of non-empty clusters whose length
// differs from the designed length.
func lengthMisses(ds *dataset.Dataset, recons []dna.Strand) int {
	n := 0
	for i, c := range ds.Clusters {
		if len(c.Reads) > 0 && recons[i].Len() != c.Ref.Len() {
			n++
		}
	}
	return n
}

// checkGet checks that a store get returned exactly the bytes put.
func checkGet(key string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("store: get %q returned %d bytes that differ from the %d put", key, len(got), len(want))
	}
	return nil
}

// checkServeResult checks one job result: the body matches the FNV-64a
// checksum the server sent with it, and it decodes to numRefs clusters.
func checkServeResult(body []byte, checksum string, numRefs int) error {
	h := fnv.New64a()
	h.Write(body)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != checksum {
		return fmt.Errorf("serve: result checksum %s, header says %q", got, checksum)
	}
	ds, err := dataset.Read(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("serve: result does not decode: %w", err)
	}
	if len(ds.Clusters) != numRefs {
		return fmt.Errorf("serve: result has %d clusters, want %d", len(ds.Clusters), numRefs)
	}
	return nil
}
