package channel

// Hashes for TestGoldenSeedDatasets, captured from the pre-plan
// implementation (mutex-guarded caches, per-position second-order double
// scan) at the commit that introduced the compiled transmission plan.
// They certify the rewrite consumed exactly the same RNG draws.
const (
	goldenHashNaive       = "6fadfa170cb25a9b8474016c96c2597c"
	goldenHashCond        = "8367e35ad2c3f18f13e28d39bf0c361c"
	goldenHashSpatial     = "81296f7ea6e1f01c2a9d45e27dbb6051"
	goldenHashSecondOrder = "d8b45c7b9cd3a1e6cb10a7352ff452c7"
	goldenHashHighRate    = "3da32917f6c4a0b86871395c99a24620"
	goldenHashDNASim      = "13aa0eaa88aada7d047b22b355bddc40"
	// Pipeline cases, captured when the stage subsystem landed: the staged
	// hash pins the strand-stage chain (must equal the pre-rewrite chained
	// Transmit stream), the pool hash additionally pins the pool-stage
	// draw-order contract (coverage draw → pool draws → read draws).
	goldenHashPipeline     = "428becd77d5e7a6c647c192db63cf6fb"
	goldenHashPipelinePool = "396dadc08aabddc80baef43aaf821bd8"
	// Fault stages, captured at the commit before the fault injectors
	// became pipeline stages, from the old wrapper types over the same
	// naive channel: truncation and the dead region keep their draws under
	// either coverage base, and dropout over FixedCoverage keeps its one
	// draw per cluster.
	goldenHashTruncateFixed  = "da0025e08c8051537b489775a0c02e88"
	goldenHashTruncateNegBin = "54747bf79cf97127c416b15bda58a02c"
	goldenHashZeroCovFixed   = "243a074d74c3e90f0d7e11f9b8f8a241"
	goldenHashZeroCovNegBin  = "1b343b8fcc087038cd62ced9a12478a9"
	goldenHashDropoutFixed   = "29e58c9758d30e093465969339119b08"
	// The chimera template stage, captured when it landed: pins the
	// coverage → pool → template → reads draw order.
	goldenHashChimeraNegBin = "edac0adfed49b5747c49a25b0d658fcf"
	// Channel and coverage paths that had no golden before Channel,
	// CoverageModel and Stage were reduced to one shape each, captured
	// with GOLDEN_PRINT=1 at the commit before that change: a channel
	// that is not a *Model (HomopolymerModel), GCBiasCoverage bare and
	// bound under a PCR-skew pool stage, ErasureCoverage, and a strand
	// pipeline of non-Model stages (naive → contam → truncate).
	goldenHashHomopolymer   = "acabdb72e91a71d88ab2b1a525debe04"
	goldenHashGCBiasNegBin  = "4425f664581298f3125442e18fd00900"
	goldenHashGCBiasPool    = "4494d1a41d4154a0832441f3ffb43386"
	goldenHashErasureNegBin = "201e6c845c861489390784d1fbba61f5"
	goldenHashStrandFaults  = "1287dd9f7d33b50a61dc145a95cf2b95"
)
