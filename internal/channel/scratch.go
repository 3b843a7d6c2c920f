package channel

import (
	"sync"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// The zero-allocation transmit path. A Strand-in, Strand-out contract
// forces two costs per read that have nothing to do with the channel
// model: decoding the reference's ASCII bytes into base codes position by
// position, and allocating the output. Both amortise naturally one level
// up: a cluster transmits the same reference Coverage times, and a
// simulation worker can own one reusable arena for its whole run.
// Channel.AppendTransmit is the interface that exposes this; Scratch is
// the arena.

// Scratch is a per-worker arena for the append-transmit fast path: the
// reference's base-code view, the output buffer, and the batched RNG
// block. A Scratch must not be shared between goroutines; the zero value
// is ready to use and all internal buffers are grown on demand and reused.
type Scratch struct {
	refCodes []dna.Base
	out      []byte
	// ends records the cumulative end offset of each read generated into
	// out when a whole cluster is built in one buffer (simulateCluster).
	ends  []int
	batch rng.Batch
	// stageOut and stageCodes are the pipeline double-buffer: an
	// intermediate stage writes its ASCII output into stageOut, which is
	// decoded into stageCodes to feed the next stage (Pipeline.
	// AppendTransmit). Only the final stage touches the caller's dst, so
	// a whole multi-stage transmit stays allocation-free once warm.
	stageOut   []byte
	stageCodes []dna.Base
	// templates and templateCodes hold a cluster's per-read template
	// molecules and the decoded codes of the one being transmitted, when
	// the coverage model binds template stages (simulateCluster).
	templates     []dna.Strand
	templateCodes []dna.Base
}

// RefBases returns ref as 2-bit base codes, reusing the arena's buffer.
// The returned slice is valid until the next RefBases call on the same
// Scratch.
func (sc *Scratch) RefBases(ref dna.Strand) []dna.Base {
	sc.refCodes = ref.AppendBases(sc.refCodes[:0])
	return sc.refCodes
}

// scratchPool recycles arenas for callers of the package function
// Transmit, which have nowhere to keep one. Simulation workers hold a
// Scratch directly and never touch the pool.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}
