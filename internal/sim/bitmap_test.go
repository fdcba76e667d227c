package sim

import (
	"math/rand"
	"testing"
)

// newHbitmap returns an empty bitmap over [0, n), n ≥ 1.
func newHbitmap(n int) *hbitmap {
	b := &hbitmap{}
	b.reset(n)
	return b
}

func TestHbitmapLevels(t *testing.T) {
	cases := []struct{ n, levels int }{
		{1, 1}, {64, 1}, {65, 2}, {4096, 2}, {4097, 3}, {1 << 18, 3}, {1 << 20, 4},
	}
	for _, c := range cases {
		b := newHbitmap(c.n)
		if len(b.levels) != c.levels {
			t.Fatalf("n=%d: %d levels, want %d", c.n, len(b.levels), c.levels)
		}
		if len(b.levels[len(b.levels)-1]) != 1 {
			t.Fatalf("n=%d: top level has %d words", c.n, len(b.levels[len(b.levels)-1]))
		}
	}
}

func TestHbitmapSetClearFirst(t *testing.T) {
	b := newHbitmap(1 << 20)
	if got := b.firstFrom(0); got != -1 {
		t.Fatalf("empty firstFrom = %d", got)
	}
	for _, i := range []int{0, 63, 64, 4095, 4096, 1<<20 - 1} {
		b.set(i)
		if !b.has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := b.firstFrom(0); got != 0 {
		t.Fatalf("firstFrom(0) = %d", got)
	}
	if got := b.firstFrom(1); got != 63 {
		t.Fatalf("firstFrom(1) = %d", got)
	}
	if got := b.firstFrom(65); got != 4095 {
		t.Fatalf("firstFrom(65) = %d", got)
	}
	if got := b.firstFrom(4097); got != 1<<20-1 {
		t.Fatalf("firstFrom(4097) = %d", got)
	}
	b.clear(1 << 20 / 2) // clearing an unset bit is a no-op
	b.clear(4095)
	if got := b.firstFrom(65); got != 4096 {
		t.Fatalf("after clear, firstFrom(65) = %d", got)
	}
	b.clear(1<<20 - 1)
	if got := b.firstFrom(4097); got != -1 {
		t.Fatalf("after clearing tail, firstFrom(4097) = %d", got)
	}
}

func TestHbitmapSetIdempotent(t *testing.T) {
	b := newHbitmap(200)
	b.set(100)
	b.set(100)
	b.clear(100)
	if b.has(100) || b.firstFrom(0) != -1 {
		t.Fatal("double set broke summary maintenance")
	}
}

// Property: against a boolean-slice oracle under a random op mix, for
// universes spanning one to four levels.
func TestHbitmapMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 17, 64, 65, 1000, 4096, 5000, 1 << 18} {
		rng := rand.New(rand.NewSource(int64(n)))
		b := newHbitmap(n)
		ref := make([]bool, n)
		refFirst := func(from int) int {
			for i := from; i < n; i++ {
				if ref[i] {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 3000; op++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				b.set(i)
				ref[i] = true
			case 1:
				b.clear(i)
				ref[i] = false
			default:
				if got, want := b.firstFrom(i), refFirst(i); got != want {
					t.Fatalf("n=%d op=%d: firstFrom(%d) = %d, want %d", n, op, i, got, want)
				}
			}
			if b.has(i) != ref[i] {
				t.Fatalf("n=%d op=%d: has(%d) = %v", n, op, i, b.has(i))
			}
		}
		if got, want := b.firstFrom(0), refFirst(0); got != want {
			t.Fatalf("n=%d final: firstFrom(0) = %d, want %d", n, got, want)
		}
	}
}
