package dynhl

// PackedGroups returns how many groups the store's write pipeline has
// repaired and packed, for the external tests that watch its progress.
func PackedGroups(s *Store) uint64 { return s.metrics.stagePack.Count() }
