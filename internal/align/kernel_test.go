package align

import (
	"strings"
	"sync"
	"testing"

	"dnastore/internal/rng"
)

// mutate returns a noisy copy of s over alphabet alpha: each position is
// substituted, deleted or followed by an inserted base with total
// probability p (split 40/40/20, the Nanopore mix), and with probability
// burst one run of 2–12 bases is deleted outright.
func mutate(r *rng.RNG, s string, p, burst float64, alpha string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if !r.Bool(p) {
			sb.WriteByte(s[i])
			continue
		}
		switch u := r.Float64(); {
		case u < 0.4:
			sb.WriteByte(alpha[r.Intn(len(alpha))])
		case u < 0.8:
		default:
			sb.WriteByte(s[i])
			sb.WriteByte(alpha[r.Intn(len(alpha))])
		}
	}
	out := sb.String()
	if len(out) > 0 && r.Bool(burst) {
		at := r.Intn(len(out))
		end := min(len(out), at+2+r.Intn(11))
		out = out[:at] + out[end:]
	}
	return out
}

// randOver returns n bytes drawn uniformly from alpha.
func randOver(r *rng.RNG, n int, alpha string) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}

// nearPairAlphabets are the strand alphabets the near-pair tests draw
// from: DNA, and bytes outside ACGT including NUL, a lone 0xff and the two
// bytes of the UTF-8 rune "ɋ", so that strands hold multi-byte runes that
// a rune-wise loop would step over.
var nearPairAlphabets = []string{"ACGT", "ACGTN\x00\xff\xc9\x8ba"}

// TestKernelMatchesReferenceNearPairs checks the kernel against the
// references on the traffic it serves: noisy copies of one strand, at
// lengths that straddle the 64-bit block boundaries, from noiseless to 20%
// noise with and without burst deletions. These pairs run the second (and
// later) bit-parallel blocks and trace back across strip boundaries, which
// the unrelated short pairs of the property tests never reach.
func TestKernelMatchesReferenceNearPairs(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	r := rng.New(2024)
	pairs := 0
	for _, n := range []int{0, 1, 63, 64, 65, 110, 127, 128, 129, 300} {
		for _, p := range []float64{0, 0.01, 0.03, 0.06, 0.1, 0.2} {
			for _, burst := range []float64{0, 0.5} {
				for _, alpha := range nearPairAlphabets {
					for trial := 0; trial < trials; trial++ {
						ref := randOver(r, n, alpha)
						read := mutate(r, ref, p, burst, alpha)
						if !checkKernel(t, ref, read, r.Uint64()) || !checkKernel(t, read, ref, r.Uint64()) {
							t.Fatalf("n=%d p=%g burst=%g alphabet %q", n, p, burst, alpha)
						}
						pairs += 2
					}
				}
			}
		}
	}
	t.Logf("%d near pairs match the references", pairs)
}

// TestKernelMatchesReferenceEdgePairs covers empty strands, unrelated
// pairs and lopsided lengths, whose tracebacks end in long runs along row 0
// or column 0.
func TestKernelMatchesReferenceEdgePairs(t *testing.T) {
	r := rng.New(77)
	cases := [][2]string{
		{"", ""}, {"", "A"}, {"ACGT", ""}, {"\x00", "\xff"},
		{"0AAAAAAA00000", "ɋ0AAAA0000"}, // multi-byte rune: the kernel works by byte
		{strings.Repeat("A", 129), strings.Repeat("A", 128)},
		{strings.Repeat("AC", 64), strings.Repeat("CA", 64)},
	}
	for _, n := range []int{64, 110, 128, 129, 300} {
		cases = append(cases,
			[2]string{randStrand(r, n), randStrand(r, n)},
			[2]string{randStrand(r, n), randStrand(r, n/3)},
			[2]string{randStrand(r, n), ""})
	}
	for _, c := range cases {
		if !checkKernel(t, c[0], c[1], r.Uint64()) || !checkKernel(t, c[1], c[0], r.Uint64()) {
			t.Fatalf("pair lengths %d, %d", len(c[0]), len(c[1]))
		}
	}
}

// TestKernelMatchesReferenceSharedPrefix checks the kernel on the traffic
// of a store get's clustering, where DistanceAtMost mostly rejects: a
// strand against a noisy read of another strand that shares its 20–28-nt
// primer and index prefix but not its payload, at lengths across the
// 64- and 128-row boundaries. checkKernel's sweep over every k takes
// DistanceAtMost through the banded kernel's cut-off and, past k = 63,
// through the Distance fallback.
func TestKernelMatchesReferenceSharedPrefix(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	r := rng.New(132)
	for _, n := range []int{100, 110, 127, 128, 129, 132, 191, 192, 193, 256, 300} {
		for _, plen := range []int{20, 24, 28} {
			for trial := 0; trial < trials; trial++ {
				prefix := randStrand(r, plen)
				ref := prefix + randStrand(r, n-plen)
				read := mutate(r, prefix+randStrand(r, n-plen), 0.04, 0.3, "ACGT")
				if !checkKernel(t, ref, read, r.Uint64()) || !checkKernel(t, read, ref, r.Uint64()) {
					t.Fatalf("n=%d prefix %d", n, plen)
				}
			}
		}
	}
}

// TestKernelMatchesReferenceLengthGaps covers pairs whose lengths differ
// by the bound or one less: a strand against a copy with a run of gap
// bases cut out, at the start, in the middle or at the end, under light
// noise. Their distance sits at or just above |Δ|, so the sweep's k = |Δ|
// and k = |Δ|+1 decide on the band's outermost diagonals.
func TestKernelMatchesReferenceLengthGaps(t *testing.T) {
	r := rng.New(63)
	for _, gap := range []int{1, 2, 31, 32, 33, 62, 63, 64} {
		for _, n := range []int{64, 110, 132, 200} {
			for _, p := range []float64{0, 0.02} {
				ref := randStrand(r, n+gap)
				for _, at := range []int{0, n / 2, n} {
					read := mutate(r, ref[:at]+ref[at+gap:], p, 0, "ACGT")
					if !checkKernel(t, ref, read, r.Uint64()) || !checkKernel(t, read, ref, r.Uint64()) {
						t.Fatalf("gap %d n=%d p=%g cut at %d", gap, n, p, at)
					}
				}
			}
		}
	}
}

// edgePair returns a pair whose only cheap alignment runs along one edge
// of DistanceAtMost's band at k = ins+del: "T"×ins + s against s + "G"×del
// with s over {A, C}, so the T's are inserted, the G's deleted, and the
// path between them follows diagonal −ins (mirrored, with swap, diagonal
// del). s is long enough that any alignment substituting the pads costs
// more.
func edgePair(r *rng.RNG, ins, del int, swap bool) (string, string) {
	s := randOver(r, 200, "AC")
	a, b := strings.Repeat("T", ins)+s, s+strings.Repeat("G", del)
	if swap {
		a, b = strings.Repeat("G", del)+s, s+strings.Repeat("T", ins)
	}
	return a, b
}

// TestDistanceAtMostBandEdges pins DistanceAtMost either side of the
// banded kernel's k <= 63 limit on pairs whose optimal path hugs the
// band's top or bottom diagonal: distance 62, 63 or 64 split every way
// between insertions and deletions, at k from d−1 to d+1 and at 63 and
// 64.
func TestDistanceAtMostBandEdges(t *testing.T) {
	r := rng.New(64)
	for _, d := range []int{62, 63, 64} {
		for _, ins := range []int{0, 1, d / 2, (d + 1) / 2, d - 1, d} {
			for _, swap := range []bool{false, true} {
				a, b := edgePair(r, ins, d-ins, swap)
				if want := refDistance(a, b); want != d {
					t.Fatalf("edge pair %d+%d has distance %d, not %d", ins, d-ins, want, d)
				}
				for _, k := range []int{d - 1, d, d + 1, 63, 64} {
					for _, p := range [][2]string{{a, b}, {b, a}} {
						got, ok := DistanceAtMost(p[0], p[1], k)
						if d <= k && (!ok || got != d) || d > k && (ok || got != k+1) {
							t.Errorf("DistanceAtMost(%d+%d edge pair, swap %v, k=%d) = (%d, %v); distance %d",
								ins, d-ins, swap, k, got, ok, d)
						}
					}
				}
			}
		}
	}
}

// TestKernelConcurrent runs Script and DistanceAtMost from 8 goroutines at
// once, checking every result against the references, so the race
// detector sees the pooled arenas shared across goroutines.
func TestKernelConcurrent(t *testing.T) {
	const workers = 8
	pairs := 60
	if testing.Short() {
		pairs = 15
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < pairs; i++ {
				ref := randStrand(r, 60+r.Intn(150))
				read := mutate(r, ref, 0.1*r.Float64(), 0.3, "ACGT")
				if !checkKernel(t, ref, read, r.Uint64()) {
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}

// FuzzScript is the kernel's differential fuzz target: for any two byte
// strings (cut to 400 bytes to bound the quadratic references) every
// entry point must agree with the references — see checkKernel.
func FuzzScript(f *testing.F) {
	r := rng.New(9)
	ref := randStrand(r, 110)
	f.Add("", "", uint64(0))
	f.Add("AGCG", "AGG", uint64(1))
	f.Add("AAC", "AC", uint64(2))
	f.Add("KITTEN", "SITTING", uint64(3))
	f.Add(ref, mutate(r, ref, 0.06, 0, "ACGT"), uint64(4))
	f.Add(ref, mutate(r, ref, 0.2, 1, "ACGT"), uint64(5))
	f.Add(ref, randStrand(r, 110), uint64(6))
	f.Add(randStrand(r, 129), randStrand(r, 127), uint64(7))
	f.Add("\x00\xff\x00", "\xff\x00", uint64(8))
	prefix := randStrand(r, 28)
	f.Add(prefix+randStrand(r, 104), mutate(r, prefix+randStrand(r, 104), 0.04, 0, "ACGT"), uint64(9))
	a, b := edgePair(r, 31, 32, false)
	f.Add(a, b, uint64(10))
	f.Fuzz(func(t *testing.T, a, b string, seed uint64) {
		const maxLen = 400
		checkKernel(t, a[:min(len(a), maxLen)], b[:min(len(b), maxLen)], seed)
	})
}
