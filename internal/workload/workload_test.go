package workload

import "testing"

func TestLCGDeterministic(t *testing.T) {
	a, b := NewLCG(7), NewLCG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("LCG not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	g := NewLCG(3)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		v := g.Intn(4)
		if v < 0 || v >= 4 {
			t.Fatalf("Intn(4) = %d", v)
		}
		counts[v]++
	}
	for c, n := range counts {
		if n < 500 {
			t.Errorf("value %d appeared only %d/4000 times", c, n)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLCG(1).Intn(0)
}

func TestDNA(t *testing.T) {
	s := DNA(100, 5)
	if len(s) != 100 {
		t.Fatalf("len %d", len(s))
	}
	if s != DNA(100, 5) {
		t.Error("not deterministic")
	}
	if s == DNA(100, 6) {
		t.Error("seed has no effect")
	}
	for _, ch := range s {
		switch ch {
		case 'A', 'C', 'G', 'T':
		default:
			t.Fatalf("bad nucleotide %q", ch)
		}
	}
}

func TestSubUnit(t *testing.T) {
	if SubUnit('A', 'A') != 0 || SubUnit('A', 'G') != 1 {
		t.Error("SubUnit wrong")
	}
}
