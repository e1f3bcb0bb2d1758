package telemetry

// FilterDecision is one aggregation step's filtering verdict: which
// contributors a Byzantine-robust rule (or consensus protocol) kept,
// clipped, or discarded at one (level, cluster, round) of the tree. The
// engines emit one per aggregation through Config.OnFilter; experiments
// join the ids against ground-truth attacker sets to measure per-level
// filter precision and recall.
//
// The id slices are owned by the emitting engine and reused across calls —
// consumers must copy (or fully reduce) them before returning.
type FilterDecision struct {
	// Engine names the emitting engine ("hfl", "vanilla", "node",
	// "pipeline", "realtime").
	Engine string
	// Level is the tree level of the aggregating node (0 = top). The flat
	// baselines report everything at level 0.
	Level int
	// Cluster is the aggregating cluster's index within its level.
	Cluster int
	// Round is the engine round during which the aggregation ran.
	Round int
	// Rule is the aggregation rule's display name (e.g. "multi-krum",
	// "cba:voting").
	Rule string
	// Kept lists contributor ids whose updates entered the output at full
	// weight; Clipped lists ids that contributed with reduced weight
	// (norm-bound / centered-clipping); Discarded lists ids excluded
	// outright. At the bottom level ids are device ids; at upper levels
	// they are the leader ids of the contributing child clusters.
	Kept, Clipped, Discarded []int
}
