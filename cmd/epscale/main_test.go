package main

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"capscale/internal/store"
)

// TestFlagValidation pins the CLI boundary: bad input produces a
// one-line usage error on stderr and a non-zero exit, never a panic or
// a silently-clamped run, and is refused before any study or sweep
// runs or any output is written.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"bad sizes", []string{"-sizes", "512,banana"}, "bad integer"},
		{"zero size", []string{"-sizes", "0"}, "must be positive"},
		{"negative threads", []string{"-threads", "-2"}, "-threads"},
		{"threads beyond cores", []string{"-threads", "64"}, "exceeds"},
		{"negative jobs", []string{"-j", "-1"}, "-j must be >= 0"},
		{"zero nodes", []string{"-nodes", "0"}, "-nodes must be >= 1"},
		{"threads beyond cluster", []string{"-nodes", "2", "-threads", "9"}, "exceeds"},
		{"unknown artifact", []string{"-what", "table99", "-quick", "-sizes", "64", "-threads", "1"}, "unknown artifact"},
		{"artifact error lists modes", []string{"-what", "table99"}, "valid: all, table2"},
		{"csv needs artifact", []string{"-csv", "-sizes", "64", "-threads", "1"}, "-csv requires"},
		{"csv for fig2", []string{"-what", "fig2", "-csv"}, "-csv needs a table"},
		{"csv with chart", []string{"-quick", "-chart", "-csv", "-what", "fig3", "-sizes", "64", "-threads", "1,2"}, "-csv needs a table"},
		{"chart for table", []string{"-chart", "-what", "table2", "-sizes", "64", "-threads", "1"}, "no chart"},
		{"chart for study", []string{"-chart", "-what", "platforms"}, "no chart"},
		{"unknown plan", []string{"-plan", "psychic"}, "valid: exhaustive, guided"},
		{"seed fraction range", []string{"-plan", "guided", "-seed-frac", "1.5"}, "-seed-frac"},
		{"negative confidence", []string{"-plan", "guided", "-confidence", "-0.1"}, "-confidence"},
		{"guided rejects traces", []string{"-plan", "guided", "-trace-out", "x.json"}, "drop -trace-out"},
		{"guided rejects faults", []string{"-plan", "guided", "-faults", "7"}, "drop -faults"},
		{"unknown algorithm", []string{"-algs", "openblas,nope"}, "unknown algorithm"},
		{"algorithm error lists names", []string{"-algs", "nope"}, "SpMV"},
		{"distributed without cluster", []string{"-algs", "SUMMA", "-sizes", "256", "-what", "table3"}, "cluster spec"},
		{"repeated size", []string{"-sizes", "64,64", "-threads", "1"}, "repeated"},
		{"load with sizes", []string{"-load", "m.json", "-sizes", "99"}, "runs no sweep; drop -sizes\n"},
		{"load with faults and checkpoint", []string{"-load", "m.json", "-sizes", "99", "-faults", "3", "-checkpoint", "/nonexistent/x.jsonl", "-what", "table3"},
			"drop -checkpoint -faults -sizes\n"},
		{"load with every other sweep flag", []string{"-load", "m.json", "-quick", "-threads", "1", "-nodes", "2", "-algs", "CAPS", "-cluster", "4x1GbE",
			"-plan", "guided", "-seed-frac", "0.5", "-confidence", "0.1", "-ablate-affinity", "-ablate-contention", "-j", "2", "-fault-rate", "0.2", "-cell-retries", "1"},
			"drop -ablate-affinity -ablate-contention -algs -cell-retries -cluster -confidence -fault-rate -j -nodes -plan -quick -seed-frac -threads\n"},
		{"study with sweep flags", []string{"-what", "future-sparse", "-sizes", "64", "-save", out("x.json"), "-trace-out", out("t.json"),
			"-checkpoint", "/nonexistent/ck.jsonl", "-faults", "3"}, "-what future-sparse reads no sweep matrix; drop -checkpoint -faults -save -sizes -trace-out\n"},
		{"fig2 with save", []string{"-what", "fig2", "-sizes", "64", "-save", out("y.json")}, "-what fig2 reads no sweep matrix; drop -save -sizes\n"},
		{"study with load", []string{"-what", "future-sparse", "-load", out("m.json")}, "drop -load\n"},
		{"platforms with metrics", []string{"-what", "platforms", "-j", "2", "-csv", "-metrics"}, "drop -metrics\n"},
		{"fault tuning without faults", []string{"-what", "table3", "-sizes", "64", "-threads", "1", "-fault-rate", "0.9", "-cell-retries", "3",
			"-save", out("z.json")}, "without -faults nothing is injected; drop -cell-retries -fault-rate\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code == 0 {
				t.Fatalf("args %v exited 0; stderr:\n%s", tc.args, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("args %v: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
			}
			if strings.Contains(stderr.String(), "running") {
				t.Fatalf("args %v: refused only after running; stderr:\n%s", tc.args, stderr.String())
			}
			if files, _ := os.ReadDir(dir); stdout.Len() > 0 || len(files) > 0 {
				t.Fatalf("args %v: refused after writing %d stdout bytes and files %v", tc.args, stdout.Len(), files)
			}
		})
	}
}

// TestSweepRefusalIsOneLine: a config the sweep refuses, and a
// checkpoint journal the sweep cannot open or another process leases,
// end in one epscale: line with the reason, never in a goroutine dump,
// and no fault injector is reported armed for a sweep that never ran.
func TestSweepRefusalIsOneLine(t *testing.T) {
	dir := t.TempDir()
	leased := filepath.Join(dir, "leased.jsonl")
	lease, err := store.AcquireLease(nil, store.LeasePath(leased), "other-sweep", time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	tiny := []string{"-sizes", "64", "-threads", "1", "-what", "table3"}
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of the last stderr line
	}{
		{"fault rate", []string{"-faults", "1", "-fault-rate", "1.5"}, 2, "outside [0,1]"},
		{"checkpoint dir missing", append(tiny, "-checkpoint", filepath.Join(dir, "missing", "ck.jsonl")), 1, "no such file"},
		{"checkpoint leased", append(tiny, "-checkpoint", leased), 1, "already in use"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("args %v exited %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			for _, l := range lines {
				if !strings.HasPrefix(l, "epscale: ") || strings.Contains(l, "armed") {
					t.Fatalf("args %v: stray stderr line %q", tc.args, l)
				}
			}
			if last := lines[len(lines)-1]; !strings.Contains(last, tc.want) {
				t.Fatalf("args %v: last stderr line %q lacks %q", tc.args, last, tc.want)
			}
		})
	}
}

// TestTinyMatrixRuns exercises a full tiny pipeline through the CLI
// entry point.
func TestTinyMatrixRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-what", "table3", "-sizes", "64", "-threads", "1,2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table III") {
		t.Fatalf("stdout lacks Table III:\n%s", stdout.String())
	}
}

// TestNodesRaisesThreadCeiling: -nodes wraps the paper machine in a
// flat cluster, so thread counts beyond one node's 4 cores become
// legal and actually simulate.
func TestNodesRaisesThreadCeiling(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-what", "table3", "-nodes", "4", "-sizes", "64", "-threads", "1,16"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table III") {
		t.Fatalf("stdout lacks Table III:\n%s", stdout.String())
	}
}

// TestNodesMatrixSavesAndLoads: a matrix swept on a -nodes flat
// cluster loads back by its machine's name and renders the table the
// sweep printed.
func TestNodesMatrixSavesAndLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var swept, loaded, stderr bytes.Buffer
	if code := run([]string{"-nodes", "2", "-sizes", "128", "-threads", "1", "-what", "table3", "-save", path}, &swept, &stderr); code != 0 {
		t.Fatalf("save: exit %d; stderr:\n%s", code, stderr.String())
	}
	if code := run([]string{"-load", path, "-what", "table3"}, &loaded, &stderr); code != 0 {
		t.Fatalf("load: exit %d; stderr:\n%s", code, stderr.String())
	}
	if loaded.String() != swept.String() {
		t.Fatalf("loaded matrix renders\n%s\nthe sweep rendered\n%s", loaded.String(), swept.String())
	}
}

// TestGuidedModelArtifact drives a guided sweep through the CLI: the
// planner note lands on stderr and the model report on stdout.
func TestGuidedModelArtifact(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-plan", "guided", "-what", "model",
		"-sizes", "128,192,256,384", "-threads", "1,2,3,4"}
	code := run(args, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "guided plan measured") {
		t.Fatalf("stderr lacks planner note:\n%s", stderr.String())
	}
	for _, want := range []string{"Energy-complexity model", "pkg.eps_op", "Worst measured-vs-predicted"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestSparseAlgsFlag: -algs swaps the matrix to the sparse workloads.
func TestSparseAlgsFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-algs", "SpMV,CG", "-what", "measurement",
		"-sizes", "256", "-threads", "1,2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "SpMV") || !strings.Contains(stdout.String(), "CG") {
		t.Fatalf("stdout lacks sparse rows:\n%s", stdout.String())
	}
}

// TestMetricsFlagPrintsTable: -metrics lands the registry snapshot on
// stderr alongside the scientific output.
func TestMetricsFlagPrintsTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-what", "table3", "-sizes", "64", "-threads", "1", "-metrics"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{"Pipeline metrics", "workload.cache", "sim.leaves.executed"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}

// TestStudyArtifacts runs the three study artifacts through the CLI
// entry point in CSV: future-dmm prints the values the distributed
// study always has, platforms its rows in order with their Eq. 9
// crossovers, future-sparse its formats, and future-dmm takes
// explicit axes.
func TestStudyArtifacts(t *testing.T) {
	table := func(args ...string) [][]string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-csv"), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", args, code, stderr.String())
		}
		rows, err := csv.NewReader(&stdout).ReadAll()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return rows
	}
	join := func(rows [][]string) string {
		var lines []string
		for _, r := range rows {
			lines = append(lines, strings.Join(r, ","))
		}
		return strings.Join(lines, "\n")
	}

	// The distributed study: dCAPS at 8192² on 1, 7 and 49 nodes over
	// gigabit Ethernet, every value as the study has always printed it.
	if got, want := join(table("-what", "future-dmm")), strings.Join([]string{
		"algorithm,n,cluster,ranks,time (s),watts,energy (J),comm (MB),speedup,S (Eq.5)",
		"dCAPS,8192,1x1GbE,1,57.3353,35.69,2046,0.00,1.00,1.00",
		"dCAPS,8192,7x1GbE,7,8.6784,198.00,1718,2415.92,6.61,36.65",
		"dCAPS,8192,49x1GbE,49,1.3620,1297.49,1767,6643.78,42.10,1530.35",
	}, "\n"); got != want {
		t.Errorf("future-dmm printed\n%s\nwant\n%s", got, want)
	}
	if rows := table("-what", "future-dmm", "-algs", "SUMMA", "-sizes", "1024", "-cluster", "1x1GbE,4x1GbE"); len(rows) != 3 {
		t.Errorf("explicit future-dmm printed %d rows, want a header and 2:\n%s", len(rows), join(rows))
	}

	// The platform sweep: machines in zoo order, the paper algorithms
	// within each; time and crossover exact, the measured watts, EP and
	// EDP within 1e-4 of the simulator's ground truth.
	want := [][]string{
		{"Intel E3-1225 v3 (Haswell), TARGET=SANDYBRIDGE", "OpenBLAS", "0.1858", "48.84", "262.81", "1.69", "4111"},
		{"Intel E3-1225 v3 (Haswell), TARGET=SANDYBRIDGE", "Strassen", "0.6996", "30.57", "43.69", "14.96", "4111"},
		{"Intel E3-1225 v3 (Haswell), TARGET=SANDYBRIDGE", "CAPS", "0.6379", "32.11", "50.34", "13.07", "4111"},
		{"Intel Xeon E5-2690 v3 (Haswell-EP, 12c)", "OpenBLAS", "0.0437", "125.43", "2868.67", "0.24", "3478"},
		{"Intel Xeon E5-2690 v3 (Haswell-EP, 12c)", "Strassen", "0.1467", "82.44", "561.83", "1.77", "3478"},
		{"Intel Xeon E5-2690 v3 (Haswell-EP, 12c)", "CAPS", "0.1356", "86.52", "638.16", "1.59", "3478"},
		{"Skylake desktop (4c, DDR4-2400 dual channel)", "OpenBLAS", "0.0848", "57.53", "678.09", "0.41", "3297"},
		{"Skylake desktop (4c, DDR4-2400 dual channel)", "Strassen", "0.3277", "32.42", "98.93", "3.48", "3297"},
		{"Skylake desktop (4c, DDR4-2400 dual channel)", "CAPS", "0.2937", "34.75", "118.32", "3.00", "3297"},
		{"hypothetical HBM node (8c, 400 GB/s)", "OpenBLAS", "0.1527", "82.17", "538.20", "1.92", "135"},
		{"hypothetical HBM node (8c, 400 GB/s)", "Strassen", "0.2716", "75.89", "279.40", "5.60", "135"},
		{"hypothetical HBM node (8c, 400 GB/s)", "CAPS", "0.2572", "78.23", "304.11", "5.18", "135"},
	}
	rows := table("-what", "platforms")
	if len(rows) != len(want)+1 || rows[0][len(rows[0])-1] != "Eq.9 crossover" {
		t.Fatalf("platforms printed\n%s", join(rows))
	}
	for i, w := range want {
		got := rows[i+1]
		for _, c := range []int{0, 1, 2, 6} {
			if got[c] != w[c] {
				t.Errorf("platforms row %d column %q: %s, want %s", i+1, rows[0][c], got[c], w[c])
			}
		}
		for _, c := range []int{3, 4, 5} {
			g, _ := strconv.ParseFloat(got[c], 64)
			x, _ := strconv.ParseFloat(w[c], 64)
			if math.Abs(g-x) > 1e-4*x {
				t.Errorf("platforms row %d column %q: %s, want %s", i+1, rows[0][c], got[c], w[c])
			}
		}
	}

	// The sparse storage-format study: four thread counts per format.
	rows = table("-what", "future-sparse")
	if len(rows) != 13 {
		t.Fatalf("future-sparse printed\n%s", join(rows))
	}
	for i, format := range []string{"CSR", "COO", "ELL"} {
		for k := 1; k <= 4; k++ {
			if r := rows[4*i+k]; r[0] != format || r[1] != strconv.Itoa(k) {
				t.Errorf("future-sparse row %d is %v, want %s on %d threads", 4*i+k, r, format, k)
			}
		}
	}
}

// TestArtifactsFitTheMatrix: a matrix with distributed cells renders
// every node artifact over its single-node algorithms, and an artifact
// whose cells the matrix cannot have exits 2 with one line naming
// them: before any cell is simulated for a sweep, right after loading
// for -load. No case panics.
func TestArtifactsFitTheMatrix(t *testing.T) {
	dir := t.TempDir()
	mixed := filepath.Join(dir, "mixed.json")
	distributed := filepath.Join(dir, "distributed.json")
	nodeOnly := filepath.Join(dir, "node.json")

	// The default artifact of a sweep with a cluster axis: the paper's
	// tables over its node algorithms, then the comm table.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sizes", "256", "-cluster", "4x1GbE", "-save", mixed}, &stdout, &stderr); code != 0 {
		t.Fatalf("default artifact with -cluster: exit %d; stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{"Table III", "Table IV", "Figure 7", "Communication volume"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("default artifact with -cluster lacks %q:\n%s", want, stdout.String())
		}
	}
	for _, what := range []string{"table3", "table4", "fig7", "breakdown"} {
		stdout.Reset()
		if code := run([]string{"-load", mixed, "-what", what}, &stdout, &stderr); code != 0 {
			t.Fatalf("-load -what %s: exit %d; stderr:\n%s", what, code, stderr.String())
		}
		if strings.Contains(stdout.String(), "SUMMA") {
			t.Fatalf("-what %s renders a distributed algorithm:\n%s", what, stdout.String())
		}
	}
	if code := run([]string{"-algs", "dCAPS", "-sizes", "128", "-cluster", "7x1GbE", "-what", "comm", "-save", distributed}, &stdout, &stderr); code != 0 {
		t.Fatalf("distributed-only sweep: exit %d; stderr:\n%s", code, stderr.String())
	}
	if code := run([]string{"-algs", "CAPS", "-sizes", "128", "-threads", "1", "-what", "table3", "-save", nodeOnly}, &stdout, &stderr); code != 0 {
		t.Fatalf("node-only sweep: exit %d; stderr:\n%s", code, stderr.String())
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-algs", "CAPS", "-sizes", "128", "-threads", "1", "-what", "table2"}, "OpenBLAS, Strassen"},
		{[]string{"-algs", "CAPS", "-sizes", "128", "-threads", "1", "-what", "fig4"}, "OpenBLAS"},
		{[]string{"-algs", "CAPS", "-sizes", "128", "-threads", "1", "-what", "headlines"}, "OpenBLAS, Strassen"},
		{[]string{"-algs", "OpenBLAS,CAPS", "-sizes", "128", "-threads", "1", "-what", "fig5"}, "Strassen"},
		{[]string{"-algs", "dCAPS", "-sizes", "128", "-cluster", "7x1GbE", "-what", "all"}, "OpenBLAS, Strassen, CAPS"},
		{[]string{"-algs", "dCAPS", "-sizes", "128", "-cluster", "7x1GbE", "-what", "table4"}, "single-node"},
		{[]string{"-load", distributed, "-what", "table3"}, "single-node"},
		{[]string{"-load", distributed, "-what", "fig6"}, "CAPS"},
		{[]string{"-algs", "CAPS", "-sizes", "128", "-threads", "1", "-what", "comm"}, "distributed"},
		{[]string{"-algs", "CAPS", "-sizes", "128", "-threads", "1", "-what", "future-dmm"}, "distributed"},
		{[]string{"-load", nodeOnly, "-what", "comm"}, "distributed"},
	} {
		stdout.Reset()
		stderr.Reset()
		code := run(tc.args, &stdout, &stderr)
		lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
		if code != 2 || len(lines) != 1 || !strings.HasPrefix(lines[0], "epscale: ") || !strings.Contains(lines[0], tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one epscale: line naming %s", tc.args, code, stderr.String(), tc.want)
		}
	}
}
