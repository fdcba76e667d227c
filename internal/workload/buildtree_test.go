package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"capscale/internal/caps"
	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/model"
	"capscale/internal/mpi"
	"capscale/internal/obs"
	"capscale/internal/sim"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

// walkTree visits the tree at root depth-first, parents before
// children.
func walkTree(root *task.Node, visit func(t *task.Tree, r task.Ref)) {
	t := root.Tree()
	var rec func(r task.Ref)
	rec = func(r task.Ref) {
		visit(t, r)
		for i := 0; i < t.NumChildren(r); i++ {
			rec(t.Child(r, i))
		}
	}
	rec(root.Ref())
}

// labelDigest hashes the depth-first leaf label sequence, one label per
// line. Leaf labels feed the Gantt and Perfetto exports, so a builder
// change that alters one byte of them changes every exported trace.
func labelDigest(root *task.Node) string {
	h := sha256.New()
	walkTree(root, func(t *task.Tree, r task.Ref) {
		if t.IsLeaf(r) {
			io.WriteString(h, t.Label(r))
			io.WriteString(h, "\n")
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// treeDigest hashes everything the simulator's accounting reads from a
// tree: node kinds and fan-out, affinity, buffer annotations, and every
// leaf's label, kind, costs and region lists, with floats by bit
// pattern. Run closures are not hashed; the numerics tests cover them.
func treeDigest(root *task.Node) string {
	h := sha256.New()
	walkTree(root, func(t *task.Tree, r task.Ref) {
		fmt.Fprintf(h, "%t %t %d %s %x\n", t.IsLeaf(r), t.IsSeq(r), t.NumChildren(r),
			t.Affinity(r), math.Float64bits(t.AllocBytes(r)))
		if t.IsLeaf(r) {
			d, regionBytes, reads, writes := t.LeafInputs(r)
			fmt.Fprintf(h, "%q %d %x %x %x %x %v %v\n", t.Label(r), d.Kind,
				math.Float64bits(d.Flops), math.Float64bits(d.L3Bytes), math.Float64bits(d.DRAMBytes),
				math.Float64bits(regionBytes), reads, writes)
		}
	})
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
		// The rows below pin the shapes the shared Strassen scaffold
		// serves: CAPS padding with work-shared chunks, Winograd and
		// pure-DFS CAPS padding with math, and padding to 1008 with
		// uneven ownership over 7 workers.
		{"caps-dfs/200", func() *task.Node {
			c, a, b := shape(200)
			return caps.Build(m, c, a, b, 4, caps.Options{CutoffDepth: -1})
		},
			"0e96fb5fdebb20ca39617b3427dee8b7204587dbb25092deb59fa2b7157590b4",
			"cf33a0bacd82717420e8dd6b43e9761733d3f929dbeb0cb6be4169fc8494cf43"},
		{"winograd-math/200", func() *task.Node {
			c, a, b := dense(200)
			return strassen.Build(m, c, a, b, 4, strassen.Options{Cutover: 16, Winograd: true, WithMath: true})
		},
			"536a1cb2757b40c48288baba686b486a2c918a48f31da3fdb1e88fe9ccb36e77",
			"0e7bfd26791439e71ac366fc3e9154587ef2814d9890ba97f36136d8df78dfc3"},
		{"caps-dfs-math/200", func() *task.Node {
			c, a, b := dense(200)
			return caps.Build(m, c, a, b, 3, caps.Options{Cutover: 16, CutoffDepth: -1, WithMath: true})
		},
			"035720215964d684b534c7990b89598c807ddd07794ccc74d6f85f9d29eae205",
			"bc2a90500fe68aaf7470c9261df6f06fc7cd75c38fded8683a2153d2313a9a99"},
		{"caps/1000", func() *task.Node {
			c, a, b := shape(1000)
			return caps.Build(m, c, a, b, 7, caps.Options{})
		},
			"295000d4937028de37ebfc494637cc306951318a7aeb3115bb038d2321a0e9ca",
			"c3a830a866ddeb418282b0de388440ddfdd39c10256d0fb891178f5405804f30"},
	}
	for _, tc := range cases {
		root := tc.build()
		if !strings.Contains(tc.name, "-math") {
			walkTree(root, func(tr *task.Tree, r task.Ref) {
				if tr.IsLeaf(r) && tr.Run(r) != nil {
					t.Fatalf("%s: shape-only leaf %q carries a Run closure", tc.name, tr.Label(r))
				}
			})
		}
		if got := labelDigest(root); got != tc.labels {
			t.Errorf("%s: leaf label digest %s, want %s", tc.name, got, tc.labels)
		}
		if got := treeDigest(root); got != tc.tree {
			t.Errorf("%s: tree digest %s, want %s", tc.name, got, tc.tree)
		}
	}
}

// walkPin renders the three tree walks' results: FromTree's Family,
// Workers and Cores, then by bit pattern SerialTime, CriticalPath and
// FromTree's float fields in declaration order.
func walkPin(m *hw.Machine, root *task.Node, f model.Family, workers int) string {
	tm := model.FromTree(m, f, root, workers)
	bits := []float64{m.SerialTime(root), m.CriticalPath(root), tm.CompSeconds, tm.Flops, tm.DRAMBytes,
		tm.L3Bytes, tm.Leaves, tm.SpanSeconds, tm.BusySeconds, tm.WireBytes, tm.Messages, tm.CommSeconds}
	s := fmt.Sprintf("%d %d %d", tm.Family, tm.Workers, tm.Cores)
	for _, x := range bits {
		s += fmt.Sprintf(" %x", math.Float64bits(x))
	}
	return s
}

// The tree walks of hw and model sum leaf costs in depth-first order;
// any other order or grouping changes the low bits. These strings were
// recorded from the walks over the allocating *task.Node view, before
// they moved to reading the tree by Ref.
func TestTreeWalksBitStable(t *testing.T) {
	m := hw.HaswellE31225()
	want := map[string]string{
		"OpenBLAS/128/1": "0 1 0 3f2a205b4349734e 3f2a205b4349734e 3f27579b4ee6db34 4150000000000000 4120000000000000 4110000000000000 4000000000000000 3f2a205b4349734e 3f2a205b4349734e 0 0 0",
		"OpenBLAS/128/3": "0 3 0 3f2a70e31b19a95c 3f287c8600503e32 3f27579b4ee6db34 4150000000000000 4120000000000000 4110000000000000 4010000000000000 3f287c8600503e32 3f2a70e31b19a95c 0 0 0",
		"OpenBLAS/256/1": "0 1 0 3f58ace1d0a11d1e 3f58ace1d0a11d1e 3f57579b4ee6db34 4180000000000000 4140000000000000 4144000000000000 4014000000000000 3f58ace1d0a11d1e 3f58ace1d0a11d1e 0 0 0",
		"OpenBLAS/256/3": "0 3 0 3f58b6f2cb9b23e0 3f484a31196e1c69 3f57579b4ee6db34 4180000000000000 4140000000000000 4144000000000000 401c000000000000 3f484a31196e1c69 3f58b6f2cb9b23e0 0 0 0",
		"Strassen/128/1": "1 1 0 3f40ffbdcc0f1de6 3f138e246d9ab54b 3f3f84223cd467e9 414c900000000000 0 4142800000000000 4035000000000000 3f138e246d9ab54b 3f40ffbdcc0f1de6 0 0 0",
		"Strassen/128/3": "1 3 0 3f40ffbdcc0f1de6 3f138e246d9ab54b 3f3f84223cd467e9 414c900000000000 0 4142800000000000 4035000000000000 3f138e246d9ab54b 3f40ffbdcc0f1de6 0 0 0",
		"Strassen/256/1": "1 1 0 3f6e667deeceb5b7 3f170c3619419a7f 3f6bad0c3960a8a8 4179460000000000 0 4175f00000000000 4064200000000000 3f170c3619419a7f 3f6e667deeceb5b7 0 0 0",
		"Strassen/256/3": "1 3 0 3f6e667deeceb5b7 3f170c3619419a7f 3f6bad0c3960a8a8 4179460000000000 0 4175f00000000000 4064200000000000 3f170c3619419a7f 3f6e667deeceb5b7 0 0 0",
		"Winograd/128/1": "1 1 0 3f40f726c61b0a7b 3f15cc3c7b7dc723 3f3f7ba8261cce03 414c780000000000 0 4141c00000000000 4035000000000000 3f15cc3c7b7dc723 3f40f726c61b0a7b 0 0 0",
		"Winograd/128/3": "1 3 0 3f40f726c61b0a7b 3f15cc3c7b7dc723 3f3f7ba8261cce03 414c780000000000 0 4141c00000000000 4035000000000000 3f15cc3c7b7dc723 3f40f726c61b0a7b 0 0 0",
		"Winograd/256/1": "1 1 0 3f6e4ede9e6f804f 3f1e7c5040ee6b10 3f6ba1645a24350c 4179250000000000 0 4174e80000000000 4064200000000000 3f1e7c5040ee6b10 3f6e4ede9e6f804f 0 0 0",
		"Winograd/256/3": "1 3 0 3f6e4ede9e6f804f 3f1e7c5040ee6b10 3f6ba1645a24350c 4179250000000000 0 4174e80000000000 4064200000000000 3f1e7c5040ee6b10 3f6e4ede9e6f804f 0 0 0",
		"CAPS/128/1":     "2 1 0 3f41ad76c075f6a2 3f140c7c652b52ea 3f3f84223cd467e9 414c900000000000 0 4148000000000000 4040000000000000 3f140c7c652b52ea 3f41ad76c075f6a2 0 0 0",
		"CAPS/128/3":     "2 3 0 3f41fdfe98462cb2 3f13c021859550f7 3f3f84223cd467eb 414c900000000002 0 4148000000000002 4044000000000000 3f13c021859550f7 3f41fdfe98462cb2 0 0 0",
		"CAPS/256/1":     "2 1 0 3f6ff12e785ad1ff 3f18925667a40c72 3f6bad0c3960a8a8 4179460000000000 0 417d800000000000 406f200000000000 3f18925667a40c72 3f6ff12e785ad1ff 0 0 0",
		"CAPS/256/3":     "2 3 0 3f700f3d70dff835 3f1760eae94c04a8 3f6bad0c3960a8a6 417945fffffffffe 0 417d7ffffffffffe 4070b00000000000 3f1760eae94c04a8 3f700f3d70dff835 0 0 0",
		"SpMV/128/1":     "4 1 0 3f303573f1dbec99 3f303573f1dbec99 3ee224a3c9cb79f0 4109af0000000000 41346f4000000000 4129af0000000000 4049000000000000 3f303573f1dbec99 3f303573f1dbec99 0 0 0",
		"SpMV/128/3":     "4 3 0 3f3812b8053133f8 3f202e2ecad2042d 3ee224a3c9cb79eb 4109af0000000000 41346f4000000000 4129af0000000000 4062c00000000000 3f202e2ecad2042d 3f3812b8053133f8 0 0 0",
		"SpMV/256/1":     "4 1 0 3f3ce1f15a841359 3f3ce1f15a841359 3ef2741c5ec4bcc6 411a1f8000000000 4144c3a000000000 413a1f8000000000 4049000000000000 3f3ce1f15a841359 3f3ce1f15a841359 0 0 0",
		"SpMV/256/3":     "4 3 0 3f425f9ab6ecad5b 3f28b2130d22fe31 3ef2741c5ec4bcb7 411a1f8000000000 4144c3a000000000 413a1f8000000000 4062c00000000000 3f28b2130d22fe31 3f425f9ab6ecad5b 0 0 0",
		"CG/128/1":       "4 1 0 3f27fca3d7e3da0a 3f27fca3d7e3da0a 3ed35efde98eafbf 40fb6c0000000000 412e190000000000 41148c0000000000 4044000000000000 3f27fca3d7e3da0a 3f27fca3d7e3da0a 0 0 0",
		"CG/128/3":       "4 3 0 3f3248eec8362616 3f187c34dda2c515 3ed35efde98eafbf 40fb6bfffffffff9 412e190000000008 41148c0000000000 405e000000000000 3f187c34dda2c515 3f3248eec8362616 0 0 0",
		"CG/256/1":       "4 1 0 3f35000069f1496b 3f35000069f1496b 3ee39e9193efb202 410bc60000000000 413e5c8000000000 4124e60000000000 4044000000000000 3f35000069f1496b 3f35000069f1496b 0 0 0",
		"CG/256/3":       "4 3 0 3f3b4a9d4635828b 3f2245fbd2803e18 3ee39e9193efb1ff 410bc5fffffffff9 413e5c8000000008 4124e60000000000 405e000000000000 3f2245fbd2803e18 3f3b4a9d4635828b 0 0 0",
	}
	families := map[Algorithm]model.Family{AlgOpenBLAS: model.FamilyClassic, AlgStrassen: model.FamilyStrassen,
		AlgWinograd: model.FamilyStrassen, AlgCAPS: model.FamilyCAPS, AlgSpMV: model.FamilySparse, AlgCG: model.FamilySparse}
	for _, alg := range []Algorithm{AlgOpenBLAS, AlgStrassen, AlgWinograd, AlgCAPS, AlgSpMV, AlgCG} {
		for _, n := range []int{128, 256} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%v/%d/%d", alg, n, workers)
				got := walkPin(m, BuildTree(m, alg, n, workers), families[alg], workers)
				if got != want[name] {
					t.Errorf("%s:\n got %s\nwant %s", name, got, want[name])
				}
			}
		}
	}
}

// runDigest hashes everything mpi.RunTraced returns for one cell: every
// Result field and every timeline segment, with floats by bit pattern.
func runDigest(res *mpi.Result, segs []sim.Segment) string {
	h := sha256.New()
	bits := func(xs ...float64) {
		for _, x := range xs {
			fmt.Fprintf(h, "%x ", math.Float64bits(x))
		}
		io.WriteString(h, "\n")
	}
	bits(res.Makespan, res.ComputeJoules, res.NICJoules, res.IdleJoules, res.BytesSent, res.CritCommSeconds)
	fmt.Fprintf(h, "%d %d\n", res.Messages, res.CritAlphaTerms)
	bits(res.RankFinish...)
	bits(res.RankBusy...)
	for _, s := range segs {
		bits(s.Start, s.End, s.Power.PKG, s.Power.PP0, s.Power.DRAM, s.Power.NIC, s.Power.Switch)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The distributed counterpart of TestBuildTreeDigestsStable: the mpi
// layer must produce the same runs, to the bit, however it schedules
// its ranks and merges their power logs. The cells are scale-sweep's
// distributed half. Each pins the sha256 of mpi.RunTraced's Result and
// timeline, and of the cell's MarshalRunRecord line. The digests were
// recorded from the goroutine-per-rank scheduler with its stable-sorted
// timeline merge.
func TestDistributedDigestsStable(t *testing.T) {
	want := map[string][2]string{
		"SUMMA/1024/0@16x1GbE": {
			"abbcd38f9a5d36130a810e56a98a0bec7090ff6538864dc96269e924f2b54203",
			"28f87bbda7af28c739ded914e54f86eb5c62ab08cb29f97d5231062ea20ddddc"},
		"SUMMA/1024/0@64xFDR": {
			"c8d0bd4abb295ee1dc6d51add68e7159708177a5b00dc91455067607cf363cf4",
			"855c4972097f1174149835f778eac7972648e14b60604ef5b30244b91b051780"},
		"SUMMA/2048/0@16x1GbE": {
			"a684019cba8fc8c92b186a74d8d86e00750f5d88ed14d6dd10efc0a18f2bb2ce",
			"8eeed4ff1affa1b37d58490e8c6531a7eabd1826e6423dc9b48fae0cdeadfec6"},
		"SUMMA/2048/0@64xFDR": {
			"66273a82e1fe4d0ae8fceb910835f1956a613deaa29aac83f4c511bdfedf482d",
			"f44f7027047c0c88e14bf4d98665cdedc17c9dc76638dabb7a50c02844447c16"},
		"2.5D/1024/0@16x1GbE": {
			"abbcd38f9a5d36130a810e56a98a0bec7090ff6538864dc96269e924f2b54203",
			"3b88001d22cdf851e3525c98be9ac502406b208d2f5f5efdb684e7517147e5f1"},
		"2.5D/1024/0@64xFDR": {
			"fb29583fa34bed286968e6f3ae7115086cfe5747d132f172738c824553c739a1",
			"e5f44ee1ee8e45da43d22de43fe34d05d2d06cd031948ac6afbbd7fc2f96584f"},
		"2.5D/2048/0@16x1GbE": {
			"a684019cba8fc8c92b186a74d8d86e00750f5d88ed14d6dd10efc0a18f2bb2ce",
			"9a9068931245e097ccabdece2f16f435a060432318f174b87210e3ecb9aaa367"},
		"2.5D/2048/0@64xFDR": {
			"345a3449311ce264ca06ef1ff35ff34b266017c8e5ca0de4ebeca1ca66282279",
			"d47b75c319bac99899854ea5e6a59c76f6faacc4f1865989bf6d743649c5bbe2"},
		"DStrassen/1024/0@16x1GbE": {
			"4457f1266a52734f71b958d5919c6126091ecaaaf1620567f26b43682244ff33",
			"03cc648be9cf7e69d74a1515d65041125bc1623fa67c152a91e0736959174953"},
		"DStrassen/1024/0@64xFDR": {
			"e2618039da5674da4ced0ce24a7fc170a6625c2419aaaa897bbc19388cf104e6",
			"487274412eba4d611c8ade586de9ce44fc8e6a38892d0d829930734a1a7c094a"},
		"DStrassen/2048/0@16x1GbE": {
			"f375b70e6474ffcc679d98c25923a633ae348ac278fa2e1d0ac4ecbb5a813637",
			"162f7d2dc45b989201ae6c9c085ac34ebe4c564ad34c90ad098c6224307859e5"},
		"DStrassen/2048/0@64xFDR": {
			"1734946876253fea361ded4bd40d4ec2205820a6fa419453ee9c920abffaff6c",
			"ab43c06b2558a350ce1ceb17b733aa2a4b0c4be734d3276450eb0ea2e79cf50b"},
		"dCAPS/1024/0@16x1GbE": {
			"61b02e9bb17b13db24e2df9dcdb54466a5733c6e5b1de030d6991a6da299227d",
			"96ee9009a8644a316ce8dd1ea9deaf3c99a982887749b2d08450fbaad7c73474"},
		"dCAPS/1024/0@64xFDR": {
			"e66709a77b5eec645fa4212586e76fd072e596f7da1bc2084a884c05a1c7772a",
			"3a1743b61d2ef7314a861df85b26a7db1dd76c83da7755b77ad163027d84f4bc"},
		"dCAPS/2048/0@16x1GbE": {
			"b1e4a34de5da3d77b01f9b0fe7e8cf54fb144a883eb3872ad998aaf270cce30d",
			"930e299849b0e8860b8c197a59a29775b202215a7f7b0371e54dfc7307489415"},
		"dCAPS/2048/0@64xFDR": {
			"dddb7742bb70fbc958fd7c872a25697f627b82d1f41b72822bf0148854823627",
			"69c01e52cb3a9d4b43a5f8f6e0d3a5a9edc55f445f3d6a071c97da5226826870"},
	}
	cfg := Config{
		Machine:    hw.HaswellE31225(),
		Algorithms: DistributedAlgorithms(),
		Sizes:      []int{1024, 2048},
		Threads:    []int{4},
		NoCache:    true,
	}
	for _, s := range []string{"16x1GbE", "64xFDR"} {
		spec, err := cluster.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clusters = append(cfg.Clusters, spec)
	}
	cells := cfg.cells()
	if len(cells) != 16 {
		t.Fatalf("%d cells, want 16", len(cells))
	}
	for _, c := range cells {
		key := cfg.cellKey(c)
		spec := cfg.clusterOf(c)
		ranks, replication := fitRanks(c.alg, c.n, spec)
		fabric, err := spec.Comms.Fabric()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cfg.Machine, spec.Nodes, fabric)
		if err != nil {
			t.Fatal(err)
		}
		res, segs := mpi.RunTraced(cl, ranks, distProgram(c.alg, c.n, replication))
		run := executeCell(cfg, c, nil, obs.Track{})
		line, err := MarshalRunRecord(key, &run)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(line)
		got := [2]string{runDigest(res, segs), hex.EncodeToString(sum[:])}
		if got != want[key] {
			t.Errorf("%s: digests {%q, %q}, want {%q, %q}", key, got[0], got[1], want[key][0], want[key][1])
		}
	}
}
