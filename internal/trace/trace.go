// Package trace represents power-over-time series: the simulator's
// per-segment plane powers become a step function that can be
// integrated, resampled at a fixed polling interval (the way a live
// power monitor samples RAPL), concatenated across runs with quiesce
// gaps, and exported as CSV for plotting.
package trace

import (
	"fmt"
	"io"
	"sort"

	"capscale/internal/hw"
	"capscale/internal/sim"
)

// Sample is one step of the power series: the plane powers hold from T
// until the next sample's T (or the trace end).
type Sample struct {
	T    float64
	PKG  float64
	PP0  float64
	DRAM float64
}

// Total returns the full-system draw at this sample: PKG + DRAM only.
// PP0 (the cores) is deliberately excluded because on RAPL it is a
// sub-plane of PKG — the package counter already contains the core
// energy, so adding PP0 again would triple-count the cores. This
// matches Eq. 3's plane encapsulation in internal/energy.
func (s Sample) Total() float64 { return s.PKG + s.DRAM }

// Trace is a right-open step function of power over [start, End).
type Trace struct {
	Samples []Sample
	End     float64
}

// FromSegments converts a simulator timeline into a trace.
func FromSegments(segs []sim.Segment) *Trace {
	tr := &Trace{}
	for _, s := range segs {
		tr.Samples = append(tr.Samples, Sample{
			T: s.Start, PKG: s.Power.PKG, PP0: s.Power.PP0, DRAM: s.Power.DRAM,
		})
		tr.End = s.End
	}
	return tr
}

// Duration returns the trace's time extent.
func (tr *Trace) Duration() float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	return tr.End - tr.Samples[0].T
}

// Energy integrates the step function, returning joules per plane.
func (tr *Trace) Energy() (pkg, pp0, dram float64) {
	for i, s := range tr.Samples {
		end := tr.End
		if i+1 < len(tr.Samples) {
			end = tr.Samples[i+1].T
		}
		dt := end - s.T
		if dt < 0 {
			panic(fmt.Sprintf("trace: non-monotone samples at %v", s.T))
		}
		pkg += s.PKG * dt
		pp0 += s.PP0 * dt
		dram += s.DRAM * dt
	}
	return pkg, pp0, dram
}

// At returns the sample in effect at time t; ok is false outside the
// trace extent.
func (tr *Trace) At(t float64) (Sample, bool) {
	if len(tr.Samples) == 0 || t < tr.Samples[0].T || t >= tr.End {
		return Sample{}, false
	}
	// Find the last sample with T <= t.
	i := sort.Search(len(tr.Samples), func(i int) bool { return tr.Samples[i].T > t }) - 1
	s := tr.Samples[i]
	s.T = t
	return s, true
}

// Resample returns the trace as seen by a poller reading every dt
// seconds from the trace start — the view a PAPI-based monitor gets.
// It panics on non-positive (or NaN) dt.
//
// Sample times are computed as start + i·dt rather than by repeated
// addition: accumulating t += dt compounds float rounding over long
// traces, skewing late sample timestamps and the total sample count.
func (tr *Trace) Resample(dt float64) *Trace {
	if !(dt > 0) { // also rejects NaN, which would loop forever
		panic(fmt.Sprintf("trace: non-positive resample interval %v", dt))
	}
	out := &Trace{End: tr.End}
	if len(tr.Samples) == 0 {
		return out
	}
	start := tr.Samples[0].T
	for i := 0; ; i++ {
		t := start + float64(i)*dt
		if t >= tr.End {
			break
		}
		if s, ok := tr.At(t); ok {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// AppendWithGap appends other to tr, inserting gap seconds at the idle
// plane powers in between — the paper's 60-second quiesce between test
// runs.
func (tr *Trace) AppendWithGap(other *Trace, gap float64, idle hw.PlanePower) {
	if gap < 0 {
		panic(fmt.Sprintf("trace: negative gap %v", gap))
	}
	offset := tr.End
	if gap > 0 {
		tr.Samples = append(tr.Samples, Sample{T: offset, PKG: idle.PKG, PP0: idle.PP0, DRAM: idle.DRAM})
		offset += gap
	}
	if len(other.Samples) == 0 {
		tr.End = offset
		return
	}
	base := other.Samples[0].T
	for _, s := range other.Samples {
		s.T = s.T - base + offset
		tr.Samples = append(tr.Samples, s)
	}
	tr.End = other.End - base + offset
}

// WriteCSV emits "t,pkg_w,pp0_w,dram_w,total_w" rows. The total_w
// column is PKG + DRAM (see Sample.Total): PP0 is a subset of PKG on
// RAPL, so it is reported for inspection but never summed in.
func (tr *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_s,pkg_w,pp0_w,dram_w,total_w"); err != nil {
		return err
	}
	for _, s := range tr.Samples {
		if _, err := fmt.Fprintf(w, "%.6f,%.3f,%.3f,%.3f,%.3f\n", s.T, s.PKG, s.PP0, s.DRAM, s.Total()); err != nil {
			return err
		}
	}
	return nil
}
