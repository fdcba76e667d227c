package strassen

import (
	"math/rand"
	"testing"

	"capscale/internal/hw"
	"capscale/internal/kernel"
	"capscale/internal/matrix"
	"capscale/internal/task"
)

// Numerical stability instrumentation. The paper notes that "Strassen
// has been known to produce differences in the numerical stability as
// compared with traditional techniques", citing Higham's analysis that
// the effect is understood and bounded: the error bound grows by a
// constant factor per recursion level (‖E‖ ≤ c·n^{log₂12}·u against
// the conventional n²·u), so shallower recursion (larger cutover) is
// more accurate. measureError makes that trade quantifiable on this
// implementation.

// errorReport compares one Strassen configuration against the
// conventional product.
type errorReport struct {
	N        int
	Cutover  int
	Levels   int     // recursion depth actually taken
	MaxAbs   float64 // max |strassen − conventional| element error
	Relative float64 // MaxAbs scaled by the result's max magnitude
}

// measureError multiplies two deterministic random [-1,1) matrices
// with the given options and reports the element-wise error against
// kernel.Mul (the conventional product).
func measureError(n int, opt Options, seed int64) errorReport {
	rng := rand.New(rand.NewSource(seed))
	a := matrix.Rand(rng, n, n)
	b := matrix.Rand(rng, n, n)

	want := matrix.New(n, n)
	kernel.Mul(want, a, b)

	got := matrix.New(n, n)
	opt.WithMath = true
	// The cost model never affects the Run closures; any valid machine
	// serves for an accuracy measurement.
	root := Build(hw.HaswellE31225(), got, a, b, 1, opt)
	task.RunSerial(root)

	levels := 0
	for v := n; v > opt.cutover() && v%2 == 0; v /= 2 {
		levels++
	}
	maxAbs := matrix.MaxAbsDiff(got, want)
	scale := want.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	return errorReport{
		N:        n,
		Cutover:  opt.cutover(),
		Levels:   levels,
		MaxAbs:   maxAbs,
		Relative: maxAbs / scale,
	}
}

func TestMeasureErrorBasics(t *testing.T) {
	r := measureError(256, Options{Cutover: 32}, 1)
	if r.N != 256 || r.Cutover != 32 || r.Levels != 3 {
		t.Fatalf("report %+v", r)
	}
	if r.MaxAbs <= 0 {
		t.Fatal("Strassen agreed with conventional to the last bit — implausible")
	}
	if r.Relative > 1e-12 {
		t.Fatalf("relative error %v far too large for n=256", r.Relative)
	}
}

func TestErrorGrowsWithRecursionDepth(t *testing.T) {
	// Higham's bound: each recursion level multiplies the error
	// constant. Deeper recursion (smaller cutover) on the same data
	// must not be more accurate; across a wide depth difference it
	// must be strictly worse.
	shallow := measureError(512, Options{Cutover: 256}, 7) // 1 level
	deep := measureError(512, Options{Cutover: 8}, 7)      // 6 levels
	if deep.Levels <= shallow.Levels {
		t.Fatalf("levels %d vs %d", deep.Levels, shallow.Levels)
	}
	if deep.MaxAbs <= shallow.MaxAbs {
		t.Fatalf("deep recursion error %v not above shallow %v", deep.MaxAbs, shallow.MaxAbs)
	}
}

func TestErrorWellUnderStabilityBoundScale(t *testing.T) {
	// Even at full depth the error stays in well-conditioned range —
	// the paper's "these issues have been well understood" point.
	r := measureError(512, Options{Cutover: 8}, 3)
	if r.Relative > 1e-11 {
		t.Fatalf("relative error %v beyond reasonable for [-1,1) inputs", r.Relative)
	}
}

func TestWinogradErrorComparableToClassic(t *testing.T) {
	classic := measureError(256, Options{Cutover: 16}, 5)
	wino := measureError(256, Options{Cutover: 16, Winograd: true}, 5)
	// Winograd's constant is slightly worse; both stay the same order.
	if wino.MaxAbs > classic.MaxAbs*100 || classic.MaxAbs > wino.MaxAbs*100 {
		t.Fatalf("classic %v vs winograd %v differ by orders of magnitude", classic.MaxAbs, wino.MaxAbs)
	}
}
