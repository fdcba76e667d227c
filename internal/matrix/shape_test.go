package matrix

import (
	"strings"
	"testing"
)

func TestShapeDims(t *testing.T) {
	m := Shape(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 || m.Stride() != 5 {
		t.Fatalf("shape dims %dx%d stride %d", m.Rows(), m.Cols(), m.Stride())
	}
	if !m.IsShape() {
		t.Fatal("IsShape false on Shape matrix")
	}
	if m.IsView() {
		t.Fatal("a fresh shape-only matrix is not a view")
	}
	if m.IsSquare() {
		t.Fatal("3x5 reported square")
	}
	if New(2, 2).IsShape() {
		t.Fatal("IsShape true on a backed matrix")
	}
}

func TestShapeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shape(-1, 2) did not panic")
		}
	}()
	Shape(-1, 2)
}

// mustPanicShape asserts fn panics with a message naming shape-only
// access.
func mustPanicShape(t *testing.T, op string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s on shape-only matrix did not panic", op)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "shape-only") {
			t.Fatalf("%s panic %v does not name shape-only access", op, r)
		}
	}()
	fn()
}

func TestShapeElementAccessPanics(t *testing.T) {
	m := Shape(4, 4)
	mustPanicShape(t, "At", func() { m.At(0, 0) })
	mustPanicShape(t, "Set", func() { m.Set(0, 0, 1) })
	mustPanicShape(t, "Row", func() { m.Row(0) })
	mustPanicShape(t, "Data", func() { m.Data() })
	// Everything built on Row panics transitively.
	mustPanicShape(t, "Zero", func() { m.Zero() })
	mustPanicShape(t, "Clone", func() { m.Clone() })
	mustPanicShape(t, "CopyTo", func() { CopyTo(New(4, 4), m) })
}

func TestShapeViewAndQuadrantsPropagate(t *testing.T) {
	m := Shape(8, 8)
	v := m.View(2, 2, 4, 4)
	if !v.IsShape() || v.Rows() != 4 || v.Cols() != 4 {
		t.Fatalf("view of shape: shape=%v %dx%d", v.IsShape(), v.Rows(), v.Cols())
	}
	a11, a12, a21, a22 := m.Quadrants()
	for i, q := range []*Dense{a11, a12, a21, a22} {
		if !q.IsShape() || q.Rows() != 4 || q.Cols() != 4 {
			t.Fatalf("quadrant %d: shape=%v %dx%d", i, q.IsShape(), q.Rows(), q.Cols())
		}
	}
}

func TestShapeString(t *testing.T) {
	if s := Shape(2, 2).String(); !strings.Contains(s, "shape") {
		t.Fatalf("String %q does not mark shape-only", s)
	}
}
