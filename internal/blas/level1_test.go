package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

func TestDaxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Daxpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("daxpy %v", y)
		}
	}
	// alpha = 0 leaves y untouched.
	Daxpy(0, x, y)
	if y[0] != 12 {
		t.Fatal("alpha=0 changed y")
	}
}

func TestDaxpyLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Daxpy(1, make([]float64, 2), make([]float64, 3))
}

func TestDdot(t *testing.T) {
	if got := Ddot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("ddot %v", got)
	}
	if got := Ddot(nil, nil); got != 0 {
		t.Fatalf("empty ddot %v", got)
	}
}

func TestDscalDcopy(t *testing.T) {
	x := []float64{1, -2, 4}
	Dscal(-0.5, x)
	if x[0] != -0.5 || x[1] != 1 || x[2] != -2 {
		t.Fatalf("dscal %v", x)
	}
	y := make([]float64, 3)
	Dcopy(x, y)
	if y[2] != -2 {
		t.Fatalf("dcopy %v", y)
	}
}

func TestDnrm2(t *testing.T) {
	if got := Dnrm2([]float64{3, 4}); math.Abs(got-5) > 1e-14 {
		t.Fatalf("nrm2 %v", got)
	}
	if Dnrm2(nil) != 0 {
		t.Fatal("empty nrm2")
	}
	// Overflow safety: naive Σx² would overflow here.
	big := []float64{1e200, 1e200}
	if got := Dnrm2(big); math.IsInf(got, 1) || math.Abs(got-1e200*math.Sqrt2) > 1e186 {
		t.Fatalf("scaled nrm2 %v", got)
	}
}

func TestPropertyDdotSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		x, y := randVec(rng, n), randVec(rng, n)
		return math.Abs(Ddot(x, y)-Ddot(y, x)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		x, y := randVec(rng, n), randVec(rng, n)
		return math.Abs(Ddot(x, y)) <= Dnrm2(x)*Dnrm2(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
