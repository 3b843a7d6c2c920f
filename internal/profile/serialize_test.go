package profile

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/durable"
	"dnastore/internal/wetlab"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters = 150
	cfg.Seed = 21
	ds := wetlab.MustGenerate(cfg)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary() != p.Summary() {
		t.Errorf("summary changed:\n%s\n%s", got.Summary(), p.Summary())
	}
	if math.Abs(got.AggregateRate()-p.AggregateRate()) > 1e-12 {
		t.Error("aggregate rate changed")
	}
	if got.HomopolymerErrorRatio() != p.HomopolymerErrorRatio() {
		t.Error("homopolymer ratio changed")
	}
	// The calibrated tiers built from the deserialized profile match.
	a := p.SecondOrderModel("m", 10)
	b := got.SecondOrderModel("m", 10)
	if math.Abs(a.AggregateRate()-b.AggregateRate()) > 1e-12 {
		t.Error("calibrated model aggregate changed")
	}
	if len(a.SecondOrder) != len(b.SecondOrder) {
		t.Fatal("second-order error count changed")
	}
	for i := range a.SecondOrder {
		if a.SecondOrder[i].String() != b.SecondOrder[i].String() {
			t.Errorf("second-order %d: %s != %s", i, a.SecondOrder[i], b.SecondOrder[i])
		}
		if math.Abs(a.SecondOrder[i].Rate-b.SecondOrder[i].Rate) > 1e-12 {
			t.Errorf("second-order %d rate changed", i)
		}
	}
}

// TestReadFileRejectsBareJSON: ReadFile reads only durable containers. A
// bare-JSON profile, the format written before containers existed, fails
// with durable.ErrNotContainer instead of loading.
func TestReadFileRejectsBareJSON(t *testing.T) {
	p, err := Profile(simulate(channel.NewNaive("n", channel.Rates{Sub: 0.02, Del: 0.01}), 40, 60, 4, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	container := filepath.Join(dir, "profile.dnac")
	if err := p.WriteFile(container); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(container)
	if err != nil {
		t.Fatalf("container profile unreadable: %v", err)
	}
	if got.Summary() != p.Summary() {
		t.Errorf("summary changed:\n%s\n%s", got.Summary(), p.Summary())
	}

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(dir, "profile.json")
	if err := os.WriteFile(bare, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bare); !errors.Is(err, durable.ErrNotContainer) {
		t.Errorf("bare-JSON profile: err = %v, want durable.ErrNotContainer", err)
	}
}

func TestReadJSONRejectsMalformed(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"version": 99, "strand_len": 10}`,
		`{"version": 1, "strand_len": 0}`,
		`{"version": 1, "strand_len": 2, "sub_matrix": [[0,0,0,0]], "spatial": [0,0,0]}`,
		`{"version": 1, "strand_len": 2, "unknown_field": true}`,
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("malformed profile accepted: %q", c)
		}
	}
}

func TestReadJSONRejectsBadSecondOrder(t *testing.T) {
	base := `{"version":1,"strand_len":2,"reads":1,"ref_bases":2,
	 "sub_matrix":[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]],
	 "spatial":[0,0,0],
	 "second_order":[{"kind":"%s","from":"%s","count":1}]}`
	bad := strings.NewReader(strings.ReplaceAll(strings.ReplaceAll(base, "%s", "bogus"), "\n", ""))
	if _, err := ReadJSON(bad); err == nil {
		t.Error("unknown second-order kind accepted")
	}
}
