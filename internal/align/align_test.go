package align

import (
	"testing"
	"testing/quick"

	"dnastore/internal/rng"
)

func TestDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"A", "", 1},
		{"", "ACGT", 4},
		{"ACGT", "ACGT", 0},
		{"ACGT", "AGGT", 1},
		{"AGTC", "ATC", 1},
		{"AGCG", "AGG", 1},
		{"KITTEN", "SITTING", 3},
		{"FLAW", "LAWN", 2},
		{"ACGTACGT", "TGCATGCA", 6},
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Distance(c.b, c.a); got != c.want {
			t.Errorf("Distance(%q,%q) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestDistanceAtMost(t *testing.T) {
	cases := []struct {
		a, b string
		k    int
		d    int
		ok   bool
	}{
		{"KITTEN", "SITTING", 3, 3, true},
		{"KITTEN", "SITTING", 2, 0, false},
		{"ACGT", "ACGT", 0, 0, true},
		{"ACGT", "TTTT", 1, 0, false},
		{"", "", 0, 0, true},
		{"AAAA", "", 3, 0, false},
		{"AAAA", "", 4, 4, true},
		{"ACGTACGTAC", "ACGACGTAC", 1, 1, true},
	}
	for _, c := range cases {
		d, ok := DistanceAtMost(c.a, c.b, c.k)
		if ok != c.ok {
			t.Errorf("DistanceAtMost(%q,%q,%d) ok = %v, want %v", c.a, c.b, c.k, ok, c.ok)
			continue
		}
		if ok && d != c.d {
			t.Errorf("DistanceAtMost(%q,%q,%d) = %d, want %d", c.a, c.b, c.k, d, c.d)
		}
	}
	if Similar("ACGT", "ACGA", 1) != true {
		t.Error("Similar failed")
	}
	if _, ok := DistanceAtMost("A", "T", -1); ok {
		t.Error("negative k should fail")
	}
}

func TestDistanceAtMostMatchesDistanceQuick(t *testing.T) {
	r := rng.New(99)
	f := func(la, lb, kRaw uint8) bool {
		a := randStrand(r, int(la%30))
		b := randStrand(r, int(lb%30))
		k := int(kRaw % 12)
		want := Distance(a, b)
		d, ok := DistanceAtMost(a, b, k)
		if want <= k {
			return ok && d == want
		}
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func randStrand(r *rng.RNG, n int) string { return randOver(r, n, "ACGT") }

func TestScriptDeterministic(t *testing.T) {
	ref, read := "AGCG", "AGG"
	ops := Script(ref, read, ScriptOptions{})
	if CostOf(ops) != 1 {
		t.Fatalf("cost = %d, want 1; ops = %+v", CostOf(ops), ops)
	}
	got, err := Apply(ref, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got != read {
		t.Errorf("Apply = %q, want %q", got, read)
	}
}

func TestScriptRoundTripQuick(t *testing.T) {
	r := rng.New(7)
	f := func(la, lb uint8) bool {
		ref := randStrand(r, int(la%40))
		read := randStrand(r, int(lb%40))
		ops := Script(ref, read, ScriptOptions{})
		if CostOf(ops) != Distance(ref, read) {
			return false
		}
		got, err := Apply(ref, ops)
		return err == nil && got == read
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestScriptRandomizedRoundTrip(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 200; trial++ {
		ref := randStrand(r, 20+r.Intn(20))
		read := randStrand(r, 20+r.Intn(20))
		ops := Script(ref, read, ScriptOptions{Randomize: true, RNG: r})
		if CostOf(ops) != Distance(ref, read) {
			t.Fatalf("randomized script cost %d != distance %d", CostOf(ops), Distance(ref, read))
		}
		got, err := Apply(ref, ops)
		if err != nil || got != read {
			t.Fatalf("randomized apply = %q (%v), want %q", got, err, read)
		}
	}
}

func TestScriptRandomizedVaries(t *testing.T) {
	// "AAC" -> "AC" admits two minimum scripts (delete either A); the
	// randomized policy should produce both.
	r := rng.New(5)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		ops := Script("AAC", "AC", ScriptOptions{Randomize: true, RNG: r})
		key := ""
		for _, op := range ops {
			key += op.Kind.String() + ","
		}
		seen[key] = true
	}
	if len(seen) < 2 {
		t.Errorf("randomized traceback produced only %d distinct scripts", len(seen))
	}
}

func TestScriptRandomizePanicsWithoutRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Script("AG", "GA", ScriptOptions{Randomize: true})
}

func TestScriptPositions(t *testing.T) {
	// ref: A G T C, read: A T C  => deletion of G at ref pos 1, read pos 1.
	ops := Script("AGTC", "ATC", ScriptOptions{})
	var dels []Op
	for _, op := range ops {
		if op.Kind == Del {
			dels = append(dels, op)
		}
	}
	if len(dels) != 1 {
		t.Fatalf("got %d deletions, want 1: %+v", len(dels), ops)
	}
	if dels[0].RefPos != 1 || dels[0].RefBase != 'G' || dels[0].ReadPos != 1 {
		t.Errorf("deletion op = %+v, want refpos 1, base G, readpos 1", dels[0])
	}
}

func TestScriptInsertionPositions(t *testing.T) {
	// ref: AC, read: ATC => insertion of T before ref pos 1, read pos 1.
	ops := Script("AC", "ATC", ScriptOptions{})
	var ins []Op
	for _, op := range ops {
		if op.Kind == Ins {
			ins = append(ins, op)
		}
	}
	if len(ins) != 1 {
		t.Fatalf("got %d insertions: %+v", len(ins), ops)
	}
	if ins[0].RefPos != 1 || ins[0].ReadBase != 'T' || ins[0].ReadPos != 1 {
		t.Errorf("insertion op = %+v", ins[0])
	}
}

func TestApplyRejectsBadScript(t *testing.T) {
	ops := Script("ACGT", "ACG", ScriptOptions{})
	if _, err := Apply("TTTT", ops); err == nil {
		t.Error("Apply with wrong reference should fail")
	}
	if _, err := Apply("ACGTA", ops); err == nil {
		t.Error("Apply with under-consumed reference should fail")
	}
}

func TestOpKindString(t *testing.T) {
	want := map[OpKind]string{Equal: "eq", Sub: "sub", Del: "del", Ins: "ins"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	if OpKind(9).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestLongestCommonSubstring(t *testing.T) {
	ai, bi, l := longestCommonSubstring("WIKIMEDIA", "WIKIMANIA")
	if l != 5 || ai != 0 || bi != 0 { // "WIKIM"
		t.Errorf("LCS = (%d,%d,%d), want (0,0,5)", ai, bi, l)
	}
	_, _, l = longestCommonSubstring("ABC", "XYZ")
	if l != 0 {
		t.Errorf("LCS of disjoint strings = %d", l)
	}
}

func TestMatchingBlocksWikipediaExample(t *testing.T) {
	// Paper Fig 3.1: WIKIMEDIA vs WIKIMANIA share WIKIM, then IA.
	blocks := MatchingBlocks("WIKIMEDIA", "WIKIMANIA")
	km := 0
	for _, b := range blocks {
		km += b.Len
		if "WIKIMEDIA"[b.APos:b.APos+b.Len] != "WIKIMANIA"[b.BPos:b.BPos+b.Len] {
			t.Errorf("block %+v does not match", b)
		}
	}
	if km != 7 { // WIKIM + IA
		t.Errorf("total matched = %d, want 7", km)
	}
	score := GestaltScore("WIKIMEDIA", "WIKIMANIA")
	want := 2.0 * 7 / 18
	if score != want {
		t.Errorf("GestaltScore = %v, want %v", score, want)
	}
}

func TestGestaltScoreBounds(t *testing.T) {
	if GestaltScore("", "") != 1 {
		t.Error("empty/empty should score 1")
	}
	if GestaltScore("ACGT", "ACGT") != 1 {
		t.Error("identical should score 1")
	}
	if GestaltScore("AAAA", "TTTT") != 0 {
		t.Error("disjoint should score 0")
	}
}

func TestGestaltScoreSymmetricInLengthQuick(t *testing.T) {
	r := rng.New(21)
	f := func(la, lb uint8) bool {
		a := randStrand(r, int(la%25))
		b := randStrand(r, int(lb%25))
		s := GestaltScore(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGestaltErrorPositionsPaperExample(t *testing.T) {
	// ref = AGTC, read = ATC: single gestalt error at read position 1
	// (deletion of G), whereas Hamming flags positions 1, 2 and the
	// missing final character.
	g := GestaltErrorPositions("AGTC", "ATC")
	if len(g) != 1 || g[0] != 1 {
		t.Errorf("gestalt errors = %v, want [1]", g)
	}
	h := HammingErrorPositions("AGTC", "ATC")
	if len(h) != 3 {
		t.Errorf("hamming errors = %v, want 3 entries", h)
	}
}

func TestGestaltErrorsBoundDistanceQuick(t *testing.T) {
	// The gestalt error count is the cost of one particular valid edit
	// script (per gap: substitute the overlap, indel the excess), so it is
	// always >= the Levenshtein distance, and its positions lie within the
	// read (plus the one-past-end slot used for trailing deletions).
	r := rng.New(33)
	f := func(la, lb uint8) bool {
		a := randStrand(r, int(la%30)+1)
		b := randStrand(r, int(lb%30)+1)
		g := GestaltErrorPositions(a, b)
		if len(g) < Distance(a, b) {
			return false
		}
		for _, p := range g {
			if p < 0 || p > len(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGestaltLowerThanHammingOnNoisyCopies(t *testing.T) {
	// Paper §3.2: for reads that are genuinely noisy copies of a reference
	// (the only case the comparison is used for), the gestalt-aligned error
	// magnitude is lower than the Hamming magnitude, because a single early
	// indel inflates every downstream Hamming position.
	r := rng.New(34)
	for trial := 0; trial < 200; trial++ {
		ref := randStrand(r, 60)
		// Apply 1-3 indels plus up to 2 substitutions.
		read := []byte(ref)
		nIndels := 1 + r.Intn(3)
		for e := 0; e < nIndels && len(read) > 1; e++ {
			p := r.Intn(len(read))
			if r.Bool(0.5) {
				read = append(read[:p], read[p+1:]...)
			} else {
				read = append(read[:p], append([]byte{"ACGT"[r.Intn(4)]}, read[p:]...)...)
			}
		}
		g := len(GestaltErrorPositions(ref, string(read)))
		h := len(HammingErrorPositions(ref, string(read)))
		if g > h {
			t.Fatalf("gestalt (%d) > hamming (%d) for noisy copy\nref  %s\nread %s", g, h, ref, read)
		}
	}
}

func TestGestaltErrorsOnIdentical(t *testing.T) {
	if g := GestaltErrorPositions("ACGT", "ACGT"); len(g) != 0 {
		t.Errorf("identical strands yield gestalt errors %v", g)
	}
	if h := HammingErrorPositions("ACGT", "ACGT"); len(h) != 0 {
		t.Errorf("identical strands yield hamming errors %v", h)
	}
}

func TestGestaltErrorsSubstitution(t *testing.T) {
	// ref = ACGT, read = ATGT: substitution C->T at position 1.
	g := GestaltErrorPositions("ACGT", "ATGT")
	if len(g) != 1 || g[0] != 1 {
		t.Errorf("gestalt errors = %v, want [1]", g)
	}
}

func TestGestaltErrorsInsertionAtEnd(t *testing.T) {
	g := GestaltErrorPositions("ACG", "ACGT")
	if len(g) != 1 || g[0] != 3 {
		t.Errorf("gestalt errors = %v, want [3]", g)
	}
}

func TestHammingErrorsLengthMismatch(t *testing.T) {
	// read longer than ref: extra positions are errors.
	h := HammingErrorPositions("AC", "ACGT")
	if len(h) != 2 || h[0] != 2 || h[1] != 3 {
		t.Errorf("hamming errors = %v, want [2 3]", h)
	}
	// ref longer than read: errors at read end.
	h = HammingErrorPositions("ACGT", "AC")
	if len(h) != 2 || h[0] != 2 || h[1] != 2 {
		t.Errorf("hamming errors = %v, want [2 2]", h)
	}
}

func TestMatchingBlocksOrdered(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 100; trial++ {
		a := randStrand(r, 30)
		b := randStrand(r, 30)
		blocks := MatchingBlocks(a, b)
		prevA, prevB := -1, -1
		for _, blk := range blocks {
			if blk.APos <= prevA || blk.BPos <= prevB {
				t.Fatalf("blocks not strictly ordered: %+v", blocks)
			}
			if a[blk.APos:blk.APos+blk.Len] != b[blk.BPos:blk.BPos+blk.Len] {
				t.Fatalf("block content mismatch: %+v", blk)
			}
			prevA = blk.APos + blk.Len - 1
			prevB = blk.BPos + blk.Len - 1
		}
	}
}

func BenchmarkDistance110(b *testing.B) {
	r := rng.New(1)
	x := randStrand(r, 110)
	y := randStrand(r, 110)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}

// BenchmarkScript110 aligns two unrelated strands (d ≈ 60), the far end of
// the distance range: the bit-vector pass costs the same at any d, so only
// the traceback's tie checks grow.
func BenchmarkScript110(b *testing.B) {
	r := rng.New(2)
	x := randStrand(r, 110)
	y := randStrand(r, 110)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Script(x, y, ScriptOptions{})
	}
}

// noisyPair110 is the traffic profiling, clustering and Iterative send the
// kernel: a 110-nt strand and a copy of it under about 6% Nanopore-mix
// noise.
func noisyPair110() (string, string) {
	r := rng.New(4)
	x := randStrand(r, 110)
	return x, mutate(r, x, 0.06, 0, "ACGT")
}

// sinkInt keeps the compiler from discarding a measured call's result.
var sinkInt int

func BenchmarkScriptNoisy110(b *testing.B) {
	x, y := noisyPair110()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt += len(Script(x, y, ScriptOptions{}))
	}
}

func BenchmarkDistanceAtMostNoisy110(b *testing.B) {
	x, y := noisyPair110()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := DistanceAtMost(x, y, len(x)/4)
		sinkInt += d
	}
}

func BenchmarkGestaltBlocks110(b *testing.B) {
	r := rng.New(3)
	x := randStrand(r, 110)
	y := randStrand(r, 110)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchingBlocks(x, y)
	}
}
