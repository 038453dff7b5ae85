// Package workload provides deterministic, seeded input generators for
// the benchmark problems: random DNA/protein sequences and scoring
// matrices. The generator is a fixed 64-bit LCG (not math/rand) so that
// generated standalone programs can embed the identical ten-line
// generator and operate on byte-identical inputs.
package workload

// LCG is the shared linear congruential generator (Knuth MMIX constants).
type LCG struct {
	state uint64
}

// NewLCG seeds a generator.
func NewLCG(seed uint64) *LCG { return &LCG{state: seed} }

// Next advances and returns the raw 64-bit state.
func (g *LCG) Next() uint64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return g.state
}

// Intn returns a value in [0, n) using the high bits.
func (g *LCG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn on non-positive n")
	}
	return int((g.Next() >> 33) % uint64(n))
}

// DNAAlphabet is the nucleotide alphabet used by the sequence problems.
const DNAAlphabet = "ACGT"

// DNA returns a deterministic random DNA sequence of length n.
func DNA(n int, seed uint64) string {
	g := NewLCG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = DNAAlphabet[g.Intn(4)]
	}
	return string(b)
}

// SubUnit is the unit-cost substitution function: 0 for a match, 1 for a
// mismatch (edit distance scoring).
func SubUnit(a, b byte) float64 {
	if a == b {
		return 0
	}
	return 1
}
