package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"capscale/internal/obs"
)

// TestMain lets the test binary stand in for capbench in the child
// processes the in-process workloads start (os.Executable -child ...).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryWorkload runs each workload for a one-second window, and
// serve-cold once more traced, and checks every result against
// BENCHMARK.json: each named metric printed with its unit and nothing
// else, no failed operation, a Chrome trace that validates, and no
// epscaled left running.
func TestEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	bin := filepath.Join(t.TempDir(), "epscaled")
	if out, err := exec.Command("go", "build", "-o", bin, "capscale/cmd/epscaled").CombinedOutput(); err != nil {
		t.Fatalf("building epscaled: %v\n%s", err, out)
	}
	outDir := t.TempDir()

	check := func(t *testing.T, args []string, want map[string]string) {
		var stdout, stderr bytes.Buffer
		code := run(append(args, "-seconds", "1", "-epscaled", bin, "-out", outDir), &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not a result (%v); exit %d\n%s", err, code, stderr.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("exit %d, correct %t, %d of %d failed\n%s", code, res.Correct, res.Failed, res.Attempted, stderr.String())
		}
		for name, unit := range want {
			if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			check(t, []string{"-workload", w.Name, "-trace", "0"}, endToEnd)
		})
	}
	t.Run("serve-cold traced", func(t *testing.T) {
		check(t, []string{"-workload", "serve-cold", "-trace", "1"}, perLayer)
		f, err := os.Open(filepath.Join(outDir, "serve-cold-seed1.trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := obs.ValidateChromeTrace(f); err != nil {
			t.Error(err)
		}
	})

	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		if cmdline, err := os.ReadFile(p); err == nil && bytes.HasPrefix(cmdline, []byte(bin)) {
			t.Errorf("epscaled still running: %s", p)
		}
	}
}
