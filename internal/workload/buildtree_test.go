package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"strings"
	"testing"

	"capscale/internal/caps"
	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

// labelDigest hashes the depth-first leaf label sequence, one label per
// line. Leaf labels feed the Gantt and Perfetto exports, so a builder
// change that alters one byte of them changes every exported trace.
func labelDigest(root *task.Node) string {
	h := sha256.New()
	for _, l := range root.Leaves() {
		io.WriteString(h, l.Work().Label)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// treeDigest hashes everything the simulator's accounting reads from a
// tree: node kinds and fan-out, affinity, buffer annotations, and every
// leaf's label, kind, costs and region lists, with floats by bit
// pattern. Run closures are not hashed; the numerics tests cover them.
func treeDigest(root *task.Node) string {
	h := sha256.New()
	var rec func(n *task.Node, h hash.Hash)
	rec = func(n *task.Node, h hash.Hash) {
		fmt.Fprintf(h, "%t %t %d %s %x\n", n.IsLeaf(), n.IsSeq(), len(n.Children()),
			n.Affinity(), math.Float64bits(n.AllocBytes()))
		if n.IsLeaf() {
			w := n.Work()
			fmt.Fprintf(h, "%q %d %x %x %x %x %v %v\n", w.Label, w.Kind,
				math.Float64bits(w.Flops), math.Float64bits(w.L3Bytes), math.Float64bits(w.DRAMBytes),
				math.Float64bits(w.RegionBytes), w.Reads, w.Writes)
		}
		for _, c := range n.Children() {
			rec(c, h)
		}
	}
	rec(root, h)
	return hex.EncodeToString(h.Sum(nil))
}

// The recursive builders must produce the same trees, to the byte,
// however they allocate them. The digests were recorded from the
// builders before they moved to per-build arenas and interned labels.
// n = 200 exercises the pad-in/pad-out path, pure-DFS CAPS the
// work-shared chunks, and the WithMath builds check that arithmetic is
// attached to exactly the same leaves.
func TestBuildTreeDigestsStable(t *testing.T) {
	m := hw.HaswellE31225()
	shape := func(n int) (c, a, b *matrix.Dense) { return matrix.Shape(n, n), matrix.Shape(n, n), matrix.Shape(n, n) }
	dense := func(n int) (c, a, b *matrix.Dense) { return matrix.New(n, n), matrix.New(n, n), matrix.New(n, n) }
	cases := []struct {
		name         string
		build        func() *task.Node
		labels, tree string
	}{
		{"strassen/256", func() *task.Node { return BuildTree(m, AlgStrassen, 256, 4) },
			"0954738738bd6e9e8f365ee5f28f061363e277f3b9b1188af982a9cb338d4f41",
			"178138f51e991c48f1e13ba4f61a8e1ac45d8e2683e8d638d3db30721ca9f28f"},
		{"strassen/200", func() *task.Node { return BuildTree(m, AlgStrassen, 200, 4) },
			"9659bbb3f98dc2e22f77a4d9079803b90a2e55e7d16b3a7c90524f30575b7390",
			"5eabdcc7da12e689a100e732f4bb145f25cdbc533763b27bd680d8d4281b0543"},
		{"winograd/256", func() *task.Node { return BuildTree(m, AlgWinograd, 256, 4) },
			"e7a397fea621811b2ef5d2c22c3edb3e20b0936957b7421b6bf265579ae81caa",
			"981048bc48488e4a2fa3779c4a6a0d26595b779aa1ea7337dd084c13c8479e59"},
		{"winograd/200", func() *task.Node { return BuildTree(m, AlgWinograd, 200, 4) },
			"b4afbe6739818da57edfc52e0716f4600ef9f898f9d80513aaddba6fad0c204e",
			"9841713cb46af05e0e5af1d0cee2ac618562f7a592334bf89dab784895349246"},
		{"caps/256", func() *task.Node { return BuildTree(m, AlgCAPS, 256, 4) },
			"132530e077ca24d89c31df0c6c67fc27eb80058fb1644de8de03565c54444fa2",
			"818f765a8e428288b9527906040e1d2c397658ebb498dfe941c2510c5093efaf"},
		{"caps/200", func() *task.Node { return BuildTree(m, AlgCAPS, 200, 4) },
			"32332b812a4baadc0a8bf499dfcd9221ba3d14180f649eeb9fe87cdcefd13ed1",
			"8e3a1b93e3d15d61df3dff15c6246a5207af65ac64200d379b407078f3b89bf6"},
		{"caps-dfs/256", func() *task.Node {
			c, a, b := shape(256)
			return caps.Build(m, c, a, b, 4, caps.Options{CutoffDepth: -1})
		},
			"fbee67b63c281ac65f0122f31c95abd1783a96368966089cae6bd5051c95efd8",
			"5dc2e09299149bc9895b2f0343750bddd3760a75aa1a3fff25abb9219abb2a44"},
		{"strassen-math/200", func() *task.Node {
			c, a, b := dense(200)
			return strassen.Build(m, c, a, b, 4, strassen.Options{Cutover: 16, WithMath: true})
		},
			"8efbff8361cfde4df320a37b6d563ed2a4f1e39e821da7ff74c4692e2cfa862e",
			"27bea8ed74ef0d0e92bf85285a1c02e268b5efd03bae3f033fdefa58481b60aa"},
		{"winograd-math/128", func() *task.Node {
			c, a, b := dense(128)
			return strassen.Build(m, c, a, b, 4, strassen.Options{Cutover: 16, Winograd: true, WithMath: true})
		},
			"15511f14a2d964d6d57ce71ea2b2041729b1c66e669adf0ea18e0632df3b7be2",
			"42554fa92282666c50532b4eec5b3d670bf8e3e36f9a96b65abca4219329a36d"},
		{"caps-math/200", func() *task.Node {
			c, a, b := dense(200)
			return caps.Build(m, c, a, b, 4, caps.Options{Cutover: 16, WithMath: true})
		},
			"5e26a1c2033fe9e3c9d6f4aae72a1a1695549b38814648e5bfbf566bd55a4577",
			"f7a052ab71364e6c6c59cd7581b6bc75bd05c77b320a6df7aa4e2b71ef7af121"},
	}
	for _, tc := range cases {
		root := tc.build()
		if !strings.Contains(tc.name, "-math") {
			for _, l := range root.Leaves() {
				if l.Work().Run != nil {
					t.Fatalf("%s: shape-only leaf %q carries a Run closure", tc.name, l.Work().Label)
				}
			}
		}
		if got := labelDigest(root); got != tc.labels {
			t.Errorf("%s: leaf label digest %s, want %s", tc.name, got, tc.labels)
		}
		if got := treeDigest(root); got != tc.tree {
			t.Errorf("%s: tree digest %s, want %s", tc.name, got, tc.tree)
		}
	}
}
