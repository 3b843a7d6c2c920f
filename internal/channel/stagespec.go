package channel

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dnastore/internal/dist"
)

// The stages DSL: the CLI- and spec-facing form of Pipeline, one language
// for every channel effect (comma-separated key=value directives,
// colon-separated sub-fields). It is read from -stages and from -faults,
// whose stages Compose appends after the channel's own. A stage list is
// parsed once, validated eagerly, and built into a Pipeline; the textual
// form travels verbatim inside SimulateSpec, so two jobs with the same
// stage string produce the same fingerprint and share shard caches across
// dnasimd and the fleet.
//
// Grammar — stages apply in listed order within their shape (strand,
// pool, template), and a repeated directive composes:
//
//	synthesis=RATE                deletion-dominant, 3'-skewed (NewSynthesisStage)
//	pcr=CYCLES:SUBRATE[:EFFSD]    per-cycle substitutions; with EFFSD also
//	                              lognormal amplification skew on the pool
//	                              (NewPCRAmplification), else strand-only
//	aging=YEARS:RATE[:BREAK]      hydrolytic decay; with BREAK also strand
//	                              breakage thinning the pool (NewAgingStage),
//	                              else strand-only (NewDecayStage)
//	sequencing=RATE[:SPATIAL]     Nanopore-mix read-out with burst deletions;
//	                              SPATIAL is a dist.ByName name
//	                              (uniform | a-shape | v-shape | terminal-skew)
//	naive=SUB:INS:DEL             uniform per-base rates (NewNaive)
//	dropout=P                     pool: zero whole clusters (Dropout)
//	zerocov=START:LEN             pool: zero a cluster-index region (ZeroCoverage)
//	truncate=P[:MIN]              strand: cut reads short (Truncation)
//	contam=P                      strand: foreign or alien-tailed reads (Contamination)
//	chimera=P                     template: PCR template switching (Chimera)
//
// Every probability and rate lies in [0,1], and every stage's per-base
// rates must pass Rates.Validate — the same bound the flat sub/ins/del
// channel enforces.
//
// e.g. "synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:0.00003:0.00133,sequencing=0.0413:terminal-skew".

// StageSpec is one parsed directive.
type StageSpec struct {
	// Kind is the directive key: synthesis, pcr, aging, sequencing, naive,
	// dropout, zerocov, truncate, contam or chimera.
	Kind string
	// Rate is the aggregate rate for synthesis and sequencing.
	Rate float64
	// Cycles and SubRate configure pcr; EffSD enables the pool skew when
	// HasPool is set.
	Cycles  int
	SubRate float64
	EffSD   float64
	// Years, RatePerYear and Breakage configure aging; Breakage thins the
	// pool when HasPool is set.
	Years, RatePerYear, Breakage float64
	// HasPool records whether the optional pool field was present, so the
	// spec round-trips exactly (pcr=30:0.001 ≠ pcr=30:0.001:0).
	HasPool bool
	// Spatial is the sequencing spatial name; empty means none.
	Spatial string
	// Sub, Ins, Del are the naive per-base rates.
	Sub, Ins, Del float64
	// P is the dropout, truncate, contam or chimera probability; MinFrac
	// the truncate prefix floor (0 when absent).
	P, MinFrac float64
	// Start and Len delimit the zerocov region.
	Start, Len int
}

// StageList is a parsed, validated stage pipeline specification.
type StageList []StageSpec

// ParseStages parses the textual stage specification; an empty string
// yields an empty list, which builds the identity pipeline.
func ParseStages(s string) (StageList, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var list StageList
	for _, item := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return nil, fmt.Errorf("stages: directive %q is not key=value", item)
		}
		sp := StageSpec{Kind: key}
		switch key {
		case "synthesis":
			r, err := parseStageRate(key, val)
			if err != nil {
				return nil, err
			}
			sp.Rate = r
		case "pcr":
			fields := strings.Split(val, ":")
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fmt.Errorf("stages: pcr needs CYCLES:SUBRATE[:EFFSD], got %q", val)
			}
			cycles, err := strconv.Atoi(fields[0])
			if err != nil || cycles < 0 {
				return nil, fmt.Errorf("stages: pcr cycles %q must be a non-negative integer", fields[0])
			}
			sub, err := parseStageRate("pcr sub", fields[1])
			if err != nil {
				return nil, err
			}
			sp.Cycles, sp.SubRate = cycles, sub
			if len(fields) == 3 {
				sd, err := parseStageRate("pcr efficiency sd", fields[2])
				if err != nil {
					return nil, err
				}
				sp.EffSD, sp.HasPool = sd, true
			}
		case "aging":
			fields := strings.Split(val, ":")
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fmt.Errorf("stages: aging needs YEARS:RATE[:BREAK], got %q", val)
			}
			years, err := strconv.ParseFloat(fields[0], 64)
			if err != nil || math.IsNaN(years) || years < 0 {
				return nil, fmt.Errorf("stages: aging years %q must be >= 0", fields[0])
			}
			rate, err := parseStageRate("aging rate", fields[1])
			if err != nil {
				return nil, err
			}
			sp.Years, sp.RatePerYear = years, rate
			if len(fields) == 3 {
				brk, err := parseStageRate("aging breakage", fields[2])
				if err != nil {
					return nil, err
				}
				sp.Breakage, sp.HasPool = brk, true
			}
		case "sequencing":
			rateStr, spatial, hasSpatial := strings.Cut(val, ":")
			r, err := parseStageRate(key, rateStr)
			if err != nil {
				return nil, err
			}
			sp.Rate = r
			if hasSpatial {
				if _, err := dist.ByName(spatial); err != nil {
					return nil, fmt.Errorf("stages: sequencing spatial: %v", err)
				}
				sp.Spatial = spatial
			}
		case "naive":
			fields := strings.Split(val, ":")
			if len(fields) != 3 {
				return nil, fmt.Errorf("stages: naive needs SUB:INS:DEL, got %q", val)
			}
			rates := [3]float64{}
			for i, f := range fields {
				r, err := parseStageRate("naive", f)
				if err != nil {
					return nil, err
				}
				rates[i] = r
			}
			sp.Sub, sp.Ins, sp.Del = rates[0], rates[1], rates[2]
		case "dropout", "contam", "chimera":
			p, err := parseStageRate(key, val)
			if err != nil {
				return nil, err
			}
			sp.P = p
		case "truncate":
			pStr, minStr, hasMin := strings.Cut(val, ":")
			p, err := parseStageRate(key, pStr)
			if err != nil {
				return nil, err
			}
			sp.P = p
			if hasMin {
				m, err := strconv.ParseFloat(minStr, 64)
				if err != nil || math.IsNaN(m) || m <= 0 || m >= 1 {
					return nil, fmt.Errorf("stages: truncate min fraction %q must be in (0,1)", minStr)
				}
				sp.MinFrac = m
			}
		case "zerocov":
			startStr, lenStr, _ := strings.Cut(val, ":")
			start, err1 := strconv.Atoi(startStr)
			length, err2 := strconv.Atoi(lenStr)
			if err1 != nil || err2 != nil || start < 0 || length <= 0 {
				return nil, fmt.Errorf("stages: zerocov needs START:LEN with START >= 0 and LEN > 0, got %q", val)
			}
			sp.Start, sp.Len = start, length
		default:
			return nil, fmt.Errorf("stages: unknown stage %q", key)
		}
		// Stage constructors scale their inputs (pcr multiplies by the
		// cycle count, aging by the years), so a spec whose fields are
		// each in range can still build a channel whose per-base rates
		// are not; refuse it here, as the flat channel does.
		if m, ok := sp.stage().(interface{ validateRates() error }); ok {
			if err := m.validateRates(); err != nil {
				return nil, fmt.Errorf("stages: %s: %w", strings.TrimSpace(item), err)
			}
		}
		list = append(list, sp)
	}
	return list, nil
}

// parseStageRate parses a probability-like rate in [0,1]. NaN is rejected
// explicitly — range comparisons against NaN are all false, and a NaN rate
// would poison every threshold downstream.
func parseStageRate(key, val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(r) || r < 0 || r > 1 {
		return 0, fmt.Errorf("stages: %s rate %q must be in [0,1]", key, val)
	}
	return r, nil
}

// Empty reports whether the list builds the identity pipeline.
func (l StageList) Empty() bool { return len(l) == 0 }

// Build assembles the pipeline. The list has already been validated by
// ParseStages; a hand-built list with an unknown Kind panics.
func (l StageList) Build(label string) Pipeline {
	stages := make([]Stage, 0, len(l))
	for _, sp := range l {
		stages = append(stages, sp.stage())
	}
	return Pipeline{Label: label, Stages: stages}
}

// stage builds the one stage the directive names.
func (sp StageSpec) stage() Stage {
	switch sp.Kind {
	case "synthesis":
		return NewSynthesisStage(sp.Rate)
	case "pcr":
		if sp.HasPool {
			return NewPCRAmplification(sp.Cycles, sp.SubRate, sp.EffSD)
		}
		return NewPCRStage(sp.Cycles, sp.SubRate)
	case "aging":
		if sp.HasPool {
			return NewAgingStage(sp.Years, sp.RatePerYear, sp.Breakage)
		}
		return NewDecayStage(sp.Years, sp.RatePerYear)
	case "sequencing":
		var spatial dist.Spatial
		if sp.Spatial != "" {
			spatial, _ = dist.ByName(sp.Spatial) // validated at parse time
		}
		return NewSequencingStage(NanoporeMix(sp.Rate), PaperLongDeletion(), spatial)
	case "naive":
		return NewNaive("naive", Rates{Sub: sp.Sub, Ins: sp.Ins, Del: sp.Del})
	case "dropout":
		return Dropout{P: sp.P}
	case "zerocov":
		return ZeroCoverage{Start: sp.Start, Len: sp.Len}
	case "truncate":
		return Truncation{P: sp.P, MinFrac: sp.MinFrac}
	case "contam":
		return Contamination{P: sp.P}
	case "chimera":
		return Chimera{P: sp.P}
	}
	panic(fmt.Sprintf("stages: unknown stage kind %q", sp.Kind))
}

// String renders the list back in its textual syntax; ParseStages(l.String())
// reproduces l exactly.
func (l StageList) String() string {
	parts := make([]string, 0, len(l))
	for _, sp := range l {
		switch sp.Kind {
		case "synthesis":
			parts = append(parts, fmt.Sprintf("synthesis=%g", sp.Rate))
		case "pcr":
			if sp.HasPool {
				parts = append(parts, fmt.Sprintf("pcr=%d:%g:%g", sp.Cycles, sp.SubRate, sp.EffSD))
			} else {
				parts = append(parts, fmt.Sprintf("pcr=%d:%g", sp.Cycles, sp.SubRate))
			}
		case "aging":
			if sp.HasPool {
				parts = append(parts, fmt.Sprintf("aging=%g:%g:%g", sp.Years, sp.RatePerYear, sp.Breakage))
			} else {
				parts = append(parts, fmt.Sprintf("aging=%g:%g", sp.Years, sp.RatePerYear))
			}
		case "sequencing":
			if sp.Spatial != "" {
				parts = append(parts, fmt.Sprintf("sequencing=%g:%s", sp.Rate, sp.Spatial))
			} else {
				parts = append(parts, fmt.Sprintf("sequencing=%g", sp.Rate))
			}
		case "naive":
			parts = append(parts, fmt.Sprintf("naive=%g:%g:%g", sp.Sub, sp.Ins, sp.Del))
		case "dropout", "contam", "chimera":
			parts = append(parts, fmt.Sprintf("%s=%g", sp.Kind, sp.P))
		case "truncate":
			if sp.MinFrac > 0 {
				parts = append(parts, fmt.Sprintf("truncate=%g:%g", sp.P, sp.MinFrac))
			} else {
				parts = append(parts, fmt.Sprintf("truncate=%g", sp.P))
			}
		case "zerocov":
			parts = append(parts, fmt.Sprintf("zerocov=%d:%d", sp.Start, sp.Len))
		}
	}
	return strings.Join(parts, ",")
}
