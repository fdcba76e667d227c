package workload

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"capscale/internal/obs"
)

// traceStatsFor executes the export path and validates the result
// structurally, returning the stats for further assertions.
func traceStatsFor(t *testing.T, buf *bytes.Buffer) *obs.TraceStats {
	t.Helper()
	stats, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported trace is structurally invalid: %v", err)
	}
	return stats
}

// TestRunChromeTraceStructure is the structural golden check for the
// single-run exporter: one thread track per simulated worker, one
// counter track per RAPL plane, and per-track monotone timestamps
// (enforced inside ValidateChromeTrace).
func TestRunChromeTraceStructure(t *testing.T) {
	defer obs.Disable()
	col := obs.Enable()

	cfg := SmokeConfig()
	cfg.RecordTraces = true
	cfg.RecordSchedule = true
	const threads = 2
	run := ExecuteOne(cfg, AlgCAPS, 128, threads)

	var buf bytes.Buffer
	if err := WriteRunChromeTrace(&buf, &run, col); err != nil {
		t.Fatal(err)
	}
	stats := traceStatsFor(t, &buf)

	if got := stats.Processes[1]; got == "" {
		t.Fatal("sim process has no process_name metadata")
	}
	for w := 0; w < threads; w++ {
		key := fmt.Sprintf("1/%d", w)
		if got, want := stats.ThreadNames[key], fmt.Sprintf("worker %d", w); got != want {
			t.Fatalf("thread %s named %q, want %q", key, got, want)
		}
		if stats.SpansPerThread[key] == 0 {
			t.Fatalf("worker %d track has no leaf spans", w)
		}
	}
	for _, plane := range []string{"PKG W", "PP0 W", "DRAM W"} {
		if stats.CounterSamples[plane] == 0 {
			t.Fatalf("no counter samples on RAPL track %q", plane)
		}
		if want := len(run.Trace.Samples); stats.CounterSamples[plane] != want {
			t.Fatalf("track %q has %d samples, power trace holds %d",
				plane, stats.CounterSamples[plane], want)
		}
	}
	// The driver collector rode along as pid 2.
	if got := stats.Processes[2]; got == "" {
		t.Fatal("driver process has no process_name metadata")
	}
	var driverSpans int
	for key, n := range stats.SpansPerThread {
		if len(key) > 2 && key[:2] == "2/" {
			driverSpans += n
		}
	}
	if driverSpans == 0 {
		t.Fatal("no driver spans exported from the obs collector")
	}
}

// TestRunChromeTraceRequiresRecording: exporting a bare run is a
// usage error, not an empty file.
func TestRunChromeTraceRequiresRecording(t *testing.T) {
	run := ExecuteOne(SmokeConfig(), AlgOpenBLAS, 64, 1)
	var buf bytes.Buffer
	if err := WriteRunChromeTrace(&buf, &run, nil); err == nil {
		t.Fatal("export of a run without schedule or trace did not error")
	}
}

// TestMatrixChromeTraceStructure checks the session exporter: a "runs"
// track with one span per cell and concatenated RAPL counter tracks
// spanning the whole session.
func TestMatrixChromeTraceStructure(t *testing.T) {

	cfg := SmokeConfig()
	cfg.RecordTraces = true
	cfg.Sizes = []int{64, 128}
	cfg.Threads = []int{1, 2}
	cfg.Algorithms = []Algorithm{AlgOpenBLAS, AlgCAPS}
	mx := Execute(cfg)

	var buf bytes.Buffer
	if err := WriteMatrixChromeTrace(&buf, mx, nil); err != nil {
		t.Fatal(err)
	}
	stats := traceStatsFor(t, &buf)

	if got, want := stats.SpansPerThread["1/0"], len(mx.Runs); got != want {
		t.Fatalf("runs track has %d spans, want one per cell (%d)", got, want)
	}
	var wantSamples int
	for i := range mx.Runs {
		wantSamples += len(mx.Runs[i].Trace.Samples)
	}
	for _, plane := range []string{"PKG W", "PP0 W", "DRAM W"} {
		if stats.CounterSamples[plane] != wantSamples {
			t.Fatalf("session track %q has %d samples, want %d",
				plane, stats.CounterSamples[plane], wantSamples)
		}
	}
}

// TestMatrixChromeTraceRequiresTraces: a sweep executed without
// RecordTraces cannot be exported as a session.
func TestMatrixChromeTraceRequiresTraces(t *testing.T) {
	mx := Execute(SmokeConfig())
	var buf bytes.Buffer
	if err := WriteMatrixChromeTrace(&buf, mx, nil); err == nil {
		t.Fatal("export of a traceless sweep did not error")
	}
}

// TestTraceSmokeGoldenFile validates a trace file produced by an
// actual CLI invocation (scripts/trace_smoke.sh sets
// CAPSCALE_TRACE_FILE); it is skipped in a bare `go test` run.
func TestTraceSmokeGoldenFile(t *testing.T) {
	path := os.Getenv("CAPSCALE_TRACE_FILE")
	if path == "" {
		t.Skip("CAPSCALE_TRACE_FILE not set; run via scripts/trace_smoke.sh")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := obs.ValidateChromeTrace(f)
	if err != nil {
		t.Fatalf("CLI-produced trace %s is structurally invalid: %v", path, err)
	}
	if stats.Events == 0 {
		t.Fatal("CLI-produced trace is empty")
	}
	for _, plane := range []string{"PKG W", "PP0 W", "DRAM W"} {
		if stats.CounterSamples[plane] == 0 {
			t.Fatalf("CLI-produced trace lacks RAPL counter track %q", plane)
		}
	}
}
