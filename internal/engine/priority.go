package engine

import "dpgen/internal/sched"

// Priority selects the order in which ready tiles are executed
// (Section V-B, Figures 4 and 5); see the policies' documentation in
// dpgen/internal/sched. The choice does not affect results, only
// memory-buffering behaviour and parallelism.
type Priority = sched.Priority

// The ready-tile policies, re-exported for Config.Priority.
const (
	ColumnMajor = sched.ColumnMajor
	LevelSet    = sched.LevelSet
	FIFO        = sched.FIFO
)
