// Package specs holds the generator input files shipped with dpgen,
// compiled into the binary. Each *.dps file is a complete problem
// description in the format of spec.Parse; the builtins bandit2, knap,
// mcm and obst are defined by theirs alone (internal/problems parses
// them from FS and adds only the run-time kernel and serial reference),
// so the file is the one source of their spec, kernel text and global
// code.
package specs

import "embed"

// FS holds every *.dps file of this directory, by base name.
//
//go:embed *.dps
var FS embed.FS
