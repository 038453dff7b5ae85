package tiling

// Unfold puts the probe on its checked path, as a failed overflow proof
// would, so tests can diff the two paths on ordinary parameters.
func (pr *TileProbe) Unfold() { pr.folded = false }
