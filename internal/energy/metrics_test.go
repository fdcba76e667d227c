package energy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEDPFamily(t *testing.T) {
	if EDP(60, 2) != 120 {
		t.Fatal("edp")
	}
}

func TestMetricsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EDP with a negative runtime: no panic")
		}
	}()
	EDP(1, -1)
}

func TestPropertyEDPOrderingConsistent(t *testing.T) {
	// If one config dominates another in both energy and time, EDP
	// agrees.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1, t1 := 1+rng.Float64()*100, 0.1+rng.Float64()*10
		e2, t2 := e1+rng.Float64()*50, t1+rng.Float64()*5
		return EDP(e1, t1) <= EDP(e2, t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
