package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"capscale/internal/obs"
	"capscale/internal/store"
)

// TestFlagValidation pins the CLI boundary: bad input produces a
// one-line usage error on stderr and a non-zero exit, before any
// output is written.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"zero n", []string{"-n", "0"}, "-n must be positive"},
		{"negative n", []string{"-n", "-64"}, "-n must be positive"},
		{"zero threads", []string{"-threads", "0"}, "-threads must be in 1.."},
		{"threads beyond cores", []string{"-threads", "99"}, "-threads must be in 1.."},
		{"zero interval", []string{"-interval", "0"}, "-interval must be positive"},
		{"negative jobs", []string{"-j", "-1"}, "-j must be >= 0"},
		{"unknown algorithm", []string{"-alg", "cannon", "-n", "64", "-threads", "1"}, "unknown algorithm"},
		{"algorithm error lists names", []string{"-alg", "cannon", "-n", "64", "-threads", "1"}, "SpMV"},
		{"zero nodes", []string{"-nodes", "0"}, "-nodes must be >= 1"},
		{"threads beyond cluster", []string{"-nodes", "2", "-threads", "9"}, "-threads must be in 1.."},
		{"session with run flags", []string{"-session", "-alg", "caps", "-n", "64", "-threads", "2", "-trace-out", trace}, "-session runs the paper's matrix, not one run; drop -alg -n -threads\n"},
		{"session with cluster", []string{"-session", "-cluster", "4x1GbE"}, "drop -cluster\n"},
		{"single run with jobs", []string{"-alg", "caps", "-n", "128", "-j", "3", "-trace-out", trace}, "a single run takes no session flags; drop -j\n"},
		{"single run with fault rate", []string{"-alg", "caps", "-n", "64", "-faults", "3", "-fault-rate", "0.5"}, "drop -fault-rate\n"},
		{"single run with checkpoint", []string{"-alg", "caps", "-n", "64", "-checkpoint", filepath.Join(dir, "ck.jsonl")}, "drop -checkpoint\n"},
		{"fault tuning without faults", []string{"-session", "-fault-rate", "0.5", "-cell-retries", "2", "-trace-out", trace},
			"without -faults nothing is injected; drop -cell-retries -fault-rate\n"},
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
			if files, _ := os.ReadDir(dir); stdout.Len() > 0 || len(files) > 0 {
				t.Fatalf("args %v: refused after writing %d stdout bytes and files %v", tc.args, stdout.Len(), files)
			}
		})
	}
}

// TestSessionRefusalIsOneLine: a session config the sweep refuses, and
// a checkpoint journal it cannot open or another process leases, end
// in one powertrace: line with the reason, never in a goroutine dump,
// and no fault injector is reported armed for a session that never ran.
func TestSessionRefusalIsOneLine(t *testing.T) {
	dir := t.TempDir()
	leased := filepath.Join(dir, "leased.jsonl")
	lease, err := store.AcquireLease(nil, store.LeasePath(leased), "other-sweep", time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"fault rate", []string{"-session", "-faults", "1", "-fault-rate", "3"}, 2, "outside [0,1]"},
		{"checkpoint dir missing", []string{"-session", "-checkpoint", filepath.Join(dir, "missing", "ck.jsonl")}, 1, "no such file"},
		{"checkpoint leased", []string{"-session", "-checkpoint", leased}, 1, "already in use"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("args %v exited %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
			}
			got := strings.TrimSuffix(stderr.String(), "\n")
			if strings.Contains(got, "\n") || !strings.HasPrefix(got, "powertrace: ") || !strings.Contains(got, tc.want) {
				t.Fatalf("args %v: stderr %q is not one powertrace: line with %q", tc.args, got, tc.want)
			}
		})
	}
}

// TestSingleRunEmitsCSV exercises the default path end to end.
func TestSingleRunEmitsCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-alg", "openblas", "-n", "64", "-threads", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "t_s,") {
		t.Fatalf("stdout is not a power-trace CSV:\n%.120s", stdout.String())
	}
}

// TestSparseRunEmitsCSV: the sparse algorithms run through the same
// single-run path as the dense ones.
func TestSparseRunEmitsCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-alg", "spmv", "-n", "256", "-threads", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "t_s,") {
		t.Fatalf("stdout is not a power-trace CSV:\n%.120s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "SpMV") {
		t.Fatalf("stderr summary lacks the algorithm name:\n%s", stderr.String())
	}
}

// TestNodesRaisesThreadCeiling: -nodes clusters the machine, letting a
// run use more threads than one node has cores.
func TestNodesRaisesThreadCeiling(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-alg", "caps", "-n", "64", "-threads", "16", "-nodes", "4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "t_s,") {
		t.Fatalf("stdout is not a power-trace CSV:\n%.120s", stdout.String())
	}
}

// TestTraceOutWritesValidChromeTrace: the -trace-out artifact must
// pass the structural validator — the same check the trace-smoke
// script applies to the installed binary.
func TestTraceOutWritesValidChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-alg", "caps", "-n", "128", "-threads", "2", "-trace-out", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := obs.ValidateChromeTrace(f)
	if err != nil {
		t.Fatalf("-trace-out produced an invalid trace: %v", err)
	}
	for _, plane := range []string{"PKG W", "PP0 W", "DRAM W"} {
		if stats.CounterSamples[plane] == 0 {
			t.Fatalf("trace lacks RAPL counter track %q", plane)
		}
	}
	for _, key := range []string{"1/0", "1/1"} {
		if stats.SpansPerThread[key] == 0 {
			t.Fatalf("trace lacks worker track %s spans", key)
		}
	}
}
