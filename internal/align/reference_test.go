package align

import (
	"reflect"
	"testing"

	"dnastore/internal/rng"
)

// The slow references every fast path in this package is checked against
// (DESIGN §18). They are the production code as it stood before the
// bit-parallel kernel; only their names and first doc lines
// changed.

// refScript is the full-matrix Script the bit-parallel kernel replaced, kept
// verbatim as its differential reference. It returns a minimum-cost edit script transforming ref into read.
// The number of non-Equal ops equals Distance(ref, read). Among equally
// minimal scripts, the tie-break policy in opts picks one; the zero options
// value is the deterministic policy.
func refScript(ref, read string, opts ScriptOptions) []Op {
	m, n := len(ref), len(read)
	// Full DP cost matrix; strands here are short (~110 bases) so the
	// quadratic matrix (~12k cells) is cheap and the traceback is exact.
	cols := n + 1
	cost := make([]int32, (m+1)*cols)
	idx := func(i, j int) int { return i*cols + j }
	for j := 0; j <= n; j++ {
		cost[idx(0, j)] = int32(j)
	}
	for i := 1; i <= m; i++ {
		cost[idx(i, 0)] = int32(i)
		for j := 1; j <= n; j++ {
			c := int32(1)
			if ref[i-1] == read[j-1] {
				c = 0
			}
			best := cost[idx(i-1, j-1)] + c
			if d := cost[idx(i-1, j)] + 1; d < best {
				best = d
			}
			if d := cost[idx(i, j-1)] + 1; d < best {
				best = d
			}
			cost[idx(i, j)] = best
		}
	}

	// Traceback from (m, n) to (0, 0), collecting ops in reverse.
	ops := make([]Op, 0, max(m, n))
	i, j := m, n
	var choice [3]OpKind // candidate buffer reused per step
	for i > 0 || j > 0 {
		cur := cost[idx(i, j)]
		nc := 0
		// Diagonal: Equal or Sub.
		if i > 0 && j > 0 {
			c := int32(1)
			if ref[i-1] == read[j-1] {
				c = 0
			}
			if cost[idx(i-1, j-1)]+c == cur {
				if c == 0 {
					choice[nc] = Equal
				} else {
					choice[nc] = Sub
				}
				nc++
			}
		}
		// Up: deletion of ref base.
		if i > 0 && cost[idx(i-1, j)]+1 == cur {
			choice[nc] = Del
			nc++
		}
		// Left: insertion of read base.
		if j > 0 && cost[idx(i, j-1)]+1 == cur {
			choice[nc] = Ins
			nc++
		}
		if nc == 0 {
			panic("align: inconsistent DP matrix") // unreachable
		}
		pick := 0
		if opts.Randomize && nc > 1 {
			if opts.RNG == nil {
				panic("align: Randomize requires an RNG")
			}
			pick = opts.RNG.Intn(nc)
		}
		switch choice[pick] {
		case Equal:
			ops = append(ops, Op{Kind: Equal, RefPos: i - 1, ReadPos: j - 1, RefBase: ref[i-1], ReadBase: read[j-1]})
			i, j = i-1, j-1
		case Sub:
			ops = append(ops, Op{Kind: Sub, RefPos: i - 1, ReadPos: j - 1, RefBase: ref[i-1], ReadBase: read[j-1]})
			i, j = i-1, j-1
		case Del:
			ops = append(ops, Op{Kind: Del, RefPos: i - 1, ReadPos: j, RefBase: ref[i-1]})
			i--
		case Ins:
			ops = append(ops, Op{Kind: Ins, RefPos: i, ReadPos: j - 1, ReadBase: read[j-1]})
			j--
		}
	}
	// Reverse into forward order.
	for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
		ops[a], ops[b] = ops[b], ops[a]
	}
	return ops
}

// refDistance is the row-DP Distance the bit-parallel kernel replaced,
// kept verbatim as its differential reference. It returns the Levenshtein (unit-cost edit) distance between a and
// b, using O(min(|a|,|b|)) memory.
func refDistance(a, b string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter string; one rolling row over b.
	n := len(b)
	if n == 0 {
		return len(a)
	}
	row := make([]int, n+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][0]
		row[0] = i
		for j := 1; j <= n; j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev + cost // substitution / match
			if row[j]+1 < best {
				best = row[j] + 1 // deletion from a
			}
			if row[j-1]+1 < best {
				best = row[j-1] + 1 // insertion into a
			}
			row[j] = best
			prev = cur
		}
	}
	return row[n]
}

// checkKernel checks every kernel entry point on one pair against the
// references: Script in both tie-break modes (ops identical, RNG left at
// the same position), AppendScript onto a non-empty buffer,
// CostOf(Script) == Distance, Apply round trip,
// Distance against the row DP, and DistanceAtMost against Distance for
// every k in [-1, max(|a|, |b|)]. It reports through t.Errorf, so it is
// safe to call from any goroutine.
func checkKernel(t testing.TB, a, b string, seed uint64) bool {
	t.Helper()
	want := refDistance(a, b)
	if got := Distance(a, b); got != want {
		t.Errorf("Distance(%q, %q) = %d, reference %d", a, b, got, want)
		return false
	}
	ops := Script(a, b, ScriptOptions{})
	if ref := refScript(a, b, ScriptOptions{}); !reflect.DeepEqual(ops, ref) {
		t.Errorf("Script(%q, %q) differs from the full-matrix reference:\n got %v\nwant %v", a, b, ops, ref)
		return false
	}
	prefix := []Op{{Kind: Ins, ReadBase: 'x'}}
	if got := AppendScript(prefix, a, b, ScriptOptions{}); !reflect.DeepEqual(got, append(prefix[:1:1], ops...)) {
		t.Errorf("AppendScript(prefix, %q, %q) = %v, want the prefix then %v", a, b, got, ops)
		return false
	}
	if c := CostOf(ops); c != want {
		t.Errorf("CostOf(Script(%q, %q)) = %d, Distance %d", a, b, c, want)
		return false
	}
	if got, err := Apply(a, ops); err != nil || got != b {
		t.Errorf("Apply(%q, Script) = %q, %v; want %q", a, got, err, b)
		return false
	}
	r, rr := rng.New(seed), rng.New(seed)
	rops := Script(a, b, ScriptOptions{Randomize: true, RNG: r})
	if ref := refScript(a, b, ScriptOptions{Randomize: true, RNG: rr}); !reflect.DeepEqual(rops, ref) {
		t.Errorf("randomized Script(%q, %q, seed %d) differs from the reference:\n got %v\nwant %v", a, b, seed, rops, ref)
		return false
	}
	if *r != *rr {
		t.Errorf("randomized Script(%q, %q, seed %d) left the RNG at a different position than the reference", a, b, seed)
		return false
	}
	for k := -1; k <= max(len(a), len(b)); k++ {
		d, ok := DistanceAtMost(a, b, k)
		if want <= k && (!ok || d != want) || want > k && (ok || d != k+1) {
			t.Errorf("DistanceAtMost(%q, %q, %d) = (%d, %v); Distance %d", a, b, k, d, ok, want)
			return false
		}
	}
	return true
}
