//go:build race

package codegen

// raceEnabled makes buildProgram compile generated programs with -race
// when the tests themselves run under it.
const raceEnabled = true
