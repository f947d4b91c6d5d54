package dynhl

// RepairedGroups returns how many groups the store's write pipeline has
// repaired, for the external tests that watch its progress.
func RepairedGroups(s *Store) uint64 { return s.metrics.stageRepair.Count() }
