package profile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"testing"

	"dnastore/internal/wetlab"
)

// Golden hashes of Profile's JSON output on a 300-cluster wetlab dataset,
// under both tie-break policies, captured with GOLDEN_PRINT=1 before
// align.Script traced back through bit vectors instead of a DP matrix.
// The randomized hash also pins the RNG draws the traceback consumes;
// each profiling worker seeds its own RNG, so the test fixes GOMAXPROCS.
const (
	goldenProfileDeterministic = "d565980b2cf6a158399cde77969b828f"
	goldenProfileRandomized    = "f6aba496e698ee76775c9091aebdf1ab"
)

func TestGoldenProfile(t *testing.T) {
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters, cfg.Seed = 300, 11
	ds := wetlab.MustGenerate(cfg)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		name string
		opts Options
		want string
	}{
		{"deterministic", Options{}, goldenProfileDeterministic},
		{"randomized", Options{RandomizeScripts: true, Seed: 5}, goldenProfileRandomized},
	} {
		p, err := Profile(ds, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:16])
		if os.Getenv("GOLDEN_PRINT") != "" {
			fmt.Printf("golden profile-%-13s %s\n", c.name, got)
			continue
		}
		if got != c.want {
			t.Errorf("%s: profile hash = %s, want %s (edit scripts changed)", c.name, got, c.want)
		}
	}
}
