package kernel

// Statistics accounting. With a nil Exec.Stage every kernel runs its
// uninstrumented path: the range loops take a nil *obs.DepthCounts and
// skip the histogram increment on one predicted branch. With a Stage,
// each worker batch accumulates a local early-stop depth histogram (one
// plain increment per 32-code segment) and flushes it into the shared
// Stage with a handful of atomic adds per 256-segment batch. Byte
// accounting follows the layout: 32 column bytes per byte slice examined,
// 2 zone-metadata bytes per zone-consulted segment, and 4 gate-mask bytes
// per segment a pipelined scan inspects.

// zoneMetaBytes is the zone-map metadata cost per consulted segment: one
// min and one max byte.
const zoneMetaBytes = 2

// gateMaskBytes is the previous-result word a pipelined scan reads per
// segment.
const gateMaskBytes = 4
