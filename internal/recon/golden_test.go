package recon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"dnastore/internal/wetlab"
)

// Golden hashes of every default reconstructor's estimates on one seeded
// wetlab dataset, captured with GOLDEN_PRINT=1 before the reconstruction
// loops moved onto pooled scratch and the caller-buffer edit script.
var goldenRecon = map[string]string{
	"BMA(w=3)":           "0d2b0bc40e783ee0c85db67612598b03",
	"DivBMA":             "913907843aece9a909eab8e2b09f82f2",
	"Iterative":          "36cebb400de126fcacc72e705a2ccb95",
	"Iterative-2way":     "55cd1cf0acec18d95a7976369069381f",
	"Iterative-weighted": "74649c683738161236d6adc0316e8718",
	"MSA":                "7ae46a6d0093f85899484c1f0998bac8",
	"Majority":           "08668e9e071e5f382563d510fe1e11ca",
}

func TestGoldenReconstructAll(t *testing.T) {
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters, cfg.MeanCoverage, cfg.Seed = 120, 8, 13
	ds := wetlab.MustGenerate(cfg)
	for _, rec := range All() {
		var sb strings.Builder
		for _, est := range ReconstructDataset(rec, ds) {
			sb.WriteString(string(est))
			sb.WriteByte('\n')
		}
		sum := sha256.Sum256([]byte(sb.String()))
		got := hex.EncodeToString(sum[:16])
		if os.Getenv("GOLDEN_PRINT") != "" {
			fmt.Printf("\t%q: %q,\n", rec.Name(), got)
			continue
		}
		if want := goldenRecon[rec.Name()]; got != want {
			t.Errorf("%s: estimates hash = %s, want %s (reconstruction output changed)", rec.Name(), got, want)
		}
	}
}
