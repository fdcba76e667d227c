// Package monitor closes the measurement loop the paper's numbers
// depend on: a virtual-time polling monitor that replays a simulated
// power timeline into the emulated RAPL device, samples it through the
// PAPI event-set layer at a fixed device-time interval — the way the
// paper's driver polled real silicon through PAPI's RAPL component —
// and reconciles what the polling measured against the device's exact
// accumulated energy.
//
// The reconciliation report states, per power plane, the measured and
// ground-truth joules, the absolute and relative error, and the number
// of 32-bit counter wraps the measurement lost (zero for a correctly
// sampled run). It also warns when the chosen poll interval could
// accumulate more than one wrap period of energy between samples at
// the timeline's peak power — the undersampling condition under which
// RAPL measurement silently loses energy on real hardware too.
//
// The experiment driver (internal/workload) measures every run through
// this monitor, so the EP and scaling figures of Eq. 1 and Eq. 5 are
// computed from measured energy, with the simulator's exact totals
// kept as a cross-check rather than used directly.
package monitor

import (
	"fmt"
	"math"
	"strings"

	"capscale/internal/faults"
	"capscale/internal/hw"
	"capscale/internal/obs"
	"capscale/internal/papi"
	"capscale/internal/rapl"
	"capscale/internal/sim"
)

// Degradation policy defaults (Config overrides).
const (
	// DefaultMaxRetries is how many times a failed plane read is
	// immediately re-attempted within one poll tick.
	DefaultMaxRetries = 3
	// DefaultQuarantineAfter is how many consecutive failed ticks a
	// plane survives before it is quarantined for the rest of the run.
	DefaultQuarantineAfter = 4
	// backoffCapTicks caps the exponential inter-retry backoff, in
	// poll ticks.
	backoffCapTicks = 8
	// DegradedAbsErrJ is the absolute measured-vs-truth discrepancy
	// (per plane, in joules) beyond which a report is flagged
	// Degraded. Clean sampling is short by at most a few counter
	// quanta (~15 µJ each at the Haswell unit), while any real loss —
	// a stuck tail, a dropped final sample, a hidden wrap — shows up
	// orders of magnitude above this.
	DegradedAbsErrJ = 0.01
)

// Config controls one monitored replay.
type Config struct {
	// PollInterval is the sampling period in seconds of device time.
	// It must be positive.
	PollInterval float64
	// Device is the RAPL device to replay into; nil selects a fresh
	// device with the default (Haswell) energy unit. Passing a device
	// with a custom ESU exponent narrows or widens the wrap period
	// under test.
	Device *rapl.Device
	// ObsTrack, when tracing is enabled, is the span track the
	// stream's "monitor.stream" span lands on. The zero Track targets
	// "main".
	ObsTrack obs.Track
	// Faults, when non-nil, arms the deterministic fault injector on
	// the whole measurement stack for this stream: counter faults and
	// tick jitter on the device, sample drops on the event set, clock
	// drift on the poll interval. The degradation machinery (retries,
	// quarantine, ground-truth fallback) runs regardless — faults are
	// just what makes it fire.
	Faults *faults.Injector
	// MaxRetries bounds immediate re-reads of a failed plane sample
	// (per tick). Zero selects DefaultMaxRetries; negative disables
	// retrying.
	MaxRetries int
	// QuarantineAfter is how many consecutive failed ticks a plane
	// survives before being quarantined. Zero selects
	// DefaultQuarantineAfter.
	QuarantineAfter int
	// Planes is the plane set this stream samples and reconciles. Nil
	// selects the node-local RAPL planes (rapl.Planes()); distributed
	// runs pass rapl.ClusterPlanes() so the NIC and switch planes are
	// polled, degraded, and reconciled exactly like the node planes.
	Planes []rapl.Plane
}

// Measurement metrics, folded into the registry at Finish.
var (
	monitorStreams     = obs.GetCounter("monitor.streams.finished")
	monitorSamples     = obs.GetCounter("monitor.samples.observed")
	monitorLostWraps   = obs.GetCounter("monitor.wraps.lost")
	monitorRetries     = obs.GetCounter("monitor.reads.retried")
	monitorReadErrors  = obs.GetCounter("monitor.reads.failed")
	monitorQuarantined = obs.GetCounter("monitor.planes.quarantined")
	monitorDropped     = obs.GetCounter("monitor.samples.dropped")
	monitorDegraded    = obs.GetCounter("monitor.streams.degraded")
)

// PlaneReport is one plane's reconciliation verdict.
type PlaneReport struct {
	Plane rapl.Plane
	// MeasuredJ is what the polled PAPI event set accumulated.
	MeasuredJ float64
	// TruthJ is the device's exact integrated energy over the replay —
	// the oracle a real monitor never sees.
	TruthJ float64
	// AbsErr is MeasuredJ − TruthJ (non-positive in practice: the
	// counters quantize downward and wraps only lose energy).
	AbsErr float64
	// RelErr is |AbsErr| / TruthJ, or 0 when TruthJ is 0.
	RelErr float64
	// LostWraps estimates how many full 32-bit counter wraps the
	// measurement missed: the deficit rounded to whole wrap periods.
	LostWraps int
	// ExtraWraps estimates spurious wraps the measurement gained — a
	// counter observed jumping backwards makes the wrap correction
	// add energy that was never dissipated.
	ExtraWraps int
	// Quarantined marks a plane that failed repeatedly and was taken
	// out of sampling; its MeasuredJ is substituted from the
	// simulator's ground truth and must be treated as modelled, not
	// measured.
	Quarantined bool
}

// Report is the outcome of one monitored replay.
type Report struct {
	// PollInterval echoes the configured sampling period.
	PollInterval float64
	// Samples counts periodic polls plus the final Stop sample.
	Samples int
	// Duration is the replayed device time in seconds.
	Duration float64
	// WrapJoules is the energy of one full counter wrap at the
	// device's unit (2³² · unit ≈ 65.5 kJ at the Haswell default).
	WrapJoules float64
	// Planes holds one report per sampled plane, in the stream's
	// configured plane order (rapl.Planes() by default,
	// rapl.ClusterPlanes() on distributed runs).
	Planes []PlaneReport
	// Warnings lists sampling-adequacy diagnostics: undersampling
	// relative to the wrap period at peak power, or too few samples to
	// call the run monitored.
	Warnings []string

	// Degraded reports that at least one figure in this report is not
	// a clean measurement: a plane was quarantined (and substituted
	// from ground truth), a wrap was lost or spuriously gained, or the
	// measured-vs-truth discrepancy exceeds DegradedAbsErrJ. Consumers
	// must surface the flag next to every number derived from a
	// degraded report.
	Degraded bool
	// Quarantined lists the planes taken out of sampling after
	// repeated read failures.
	Quarantined []rapl.Plane
	// Retries counts immediate re-reads after transient failures.
	Retries int
	// ReadErrors counts plane-sample attempts that failed even after
	// retrying.
	ReadErrors int
	// DroppedSamples counts timer-thread samples the fault layer
	// swallowed.
	DroppedSamples int
}

// Plane returns the report for one plane; it panics on an unknown
// plane, which indicates a caller bug.
func (r *Report) Plane(p rapl.Plane) PlaneReport {
	for _, pr := range r.Planes {
		if pr.Plane == p {
			return pr
		}
	}
	panic(fmt.Sprintf("monitor: no report for plane %v", p))
}

// MaxAbsErr returns the largest per-plane |measured − truth| in joules.
func (r *Report) MaxAbsErr() float64 {
	worst := 0.0
	for _, pr := range r.Planes {
		if e := math.Abs(pr.AbsErr); e > worst {
			worst = e
		}
	}
	return worst
}

// MaxRelErr returns the largest per-plane relative error.
func (r *Report) MaxRelErr() float64 {
	worst := 0.0
	for _, pr := range r.Planes {
		if pr.RelErr > worst {
			worst = pr.RelErr
		}
	}
	return worst
}

// WrapLoss reports whether any plane lost at least one counter wrap.
func (r *Report) WrapLoss() bool {
	for _, pr := range r.Planes {
		if pr.LostWraps > 0 {
			return true
		}
	}
	return false
}

// Reconciled reports whether the measurement agrees with ground truth:
// no wrap loss and every plane within relTol relative error (planes
// with zero truth must measure within one counter quantum).
func (r *Report) Reconciled(relTol float64) bool {
	if r.WrapLoss() {
		return false
	}
	for _, pr := range r.Planes {
		if pr.TruthJ == 0 {
			if math.Abs(pr.MeasuredJ) > r.WrapJoules/math.Pow(2, 32) {
				return false
			}
			continue
		}
		if pr.RelErr > relTol {
			return false
		}
	}
	return true
}

// String renders a one-paragraph summary for logs and CLI output.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "monitor: %d samples @ %gs over %.4fs", r.Samples, r.PollInterval, r.Duration)
	if r.Degraded {
		sb.WriteString(" [DEGRADED]")
	}
	for _, pr := range r.Planes {
		fmt.Fprintf(&sb, "; %s %.4f/%.4f J (rel.err %.2e", pr.Plane, pr.MeasuredJ, pr.TruthJ, pr.RelErr)
		if pr.LostWraps > 0 {
			fmt.Fprintf(&sb, ", %d wraps LOST", pr.LostWraps)
		}
		if pr.ExtraWraps > 0 {
			fmt.Fprintf(&sb, ", %d wraps GAINED", pr.ExtraWraps)
		}
		if pr.Quarantined {
			sb.WriteString(", QUARANTINED→truth")
		}
		sb.WriteString(")")
	}
	if r.Retries > 0 || r.ReadErrors > 0 || r.DroppedSamples > 0 {
		fmt.Fprintf(&sb, "; retries %d, read errors %d, dropped samples %d",
			r.Retries, r.ReadErrors, r.DroppedSamples)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&sb, "\nwarning: %s", w)
	}
	return sb.String()
}

// Stream is an incremental monitor: the same polling measurement
// Replay performs, but fed one power segment at a time as a producer
// (typically sim.Config.OnSegment) emits them. This fuses measurement
// into the simulator's event loop — no materialized timeline, no
// second O(segments) pass.
//
// Usage: NewStream, then Observe once per segment in time order, then
// Finish to stop the event set and build the Report. Finish is
// idempotent: the first call settles the stream and subsequent calls
// return the same report and error. A Stream is not safe for
// concurrent use; each simulated run gets its own Stream. Streams
// must be constructed with NewStream: methods on a zero-value Stream
// return descriptive errors instead of sampling a nonexistent event
// set.
type Stream struct {
	cfg     Config
	dev     *rapl.Device
	es      *papi.EventSet
	planes  []rapl.Plane
	events  []string // PAPI event name per plane, in planes order
	truth0  []float64
	t0      float64
	peak    hw.PlanePower
	samples int
	err     error
	done    bool
	sp      obs.Span

	// Effective (possibly drift-perturbed) poll interval.
	interval float64

	// Degradation machinery: per-plane consecutive-failure counts,
	// capped-exponential backoff (in ticks to skip), and quarantine.
	maxRetries  int
	quarAfter   int
	consFails   []int
	backoff     []int
	quarantined []bool
	retries     int
	readErrs    int

	// Settled Finish outcome (idempotency).
	finRep *Report
	finErr error
}

// planeWatts projects one plane's component out of a PlanePower.
func planeWatts(pw hw.PlanePower, p rapl.Plane) float64 {
	switch p {
	case rapl.PlanePKG:
		return pw.PKG
	case rapl.PlanePP0:
		return pw.PP0
	case rapl.PlaneDRAM:
		return pw.DRAM
	case rapl.PlaneNIC:
		return pw.NIC
	case rapl.PlaneSwitch:
		return pw.Switch
	}
	panic(fmt.Sprintf("monitor: unknown plane %v", p))
}

// NewStream prepares a monitored measurement: it arms the PAPI event
// set on the RAPL device and schedules periodic polling every
// cfg.PollInterval seconds of device time. With cfg.Faults set it
// also installs the fault injector's hooks across the stack (and a
// drifted poll clock); the clean path is bit-identical to a faultless
// stream.
func NewStream(cfg Config) (*Stream, error) {
	if cfg.PollInterval <= 0 {
		return nil, fmt.Errorf("monitor: non-positive poll interval %v", cfg.PollInterval)
	}
	dev := cfg.Device
	if dev == nil {
		dev = rapl.NewDevice()
	}

	s := &Stream{cfg: cfg, dev: dev, interval: cfg.PollInterval}
	switch {
	case cfg.MaxRetries == 0:
		s.maxRetries = DefaultMaxRetries
	case cfg.MaxRetries < 0:
		s.maxRetries = 0
	default:
		s.maxRetries = cfg.MaxRetries
	}
	s.quarAfter = cfg.QuarantineAfter
	if s.quarAfter <= 0 {
		s.quarAfter = DefaultQuarantineAfter
	}
	s.planes = cfg.Planes
	if len(s.planes) == 0 {
		s.planes = rapl.Planes()
	}
	n := len(s.planes)
	s.events = make([]string, n)
	s.truth0 = make([]float64, n)
	s.consFails = make([]int, n)
	s.backoff = make([]int, n)
	s.quarantined = make([]bool, n)
	for i, p := range s.planes {
		ev, err := papi.EventForPlane(p)
		if err != nil {
			return nil, err
		}
		s.events[i] = ev
		s.truth0[i] = dev.TotalJoules(p)
	}

	s.es = papi.NewEventSet(dev)
	for _, e := range s.events {
		if err := s.es.Add(e); err != nil {
			return nil, err
		}
	}
	if inj := cfg.Faults; inj != nil {
		s.interval = inj.DriftInterval(s.interval)
		if s.interval <= 0 { // defensive: drift must not disable polling
			s.interval = cfg.PollInterval
		}
		dev.SetCounterFault(inj.CounterRead)
		dev.SetPollJitter(inj.PollJitter)
		s.es.SetFaultHook(inj)
	}
	if err := s.es.Start(); err != nil {
		return nil, err
	}
	dev.SetPoll(s.interval, s.pollTick)
	s.t0 = dev.Now()
	if obs.Enabled() {
		s.sp = obs.StartOn(cfg.ObsTrack, "monitor.stream")
	}
	return s, nil
}

// pollTick is the per-tick sampling body: each plane is sampled
// independently so one failing plane neither poisons nor delays the
// others. A failed read is retried immediately up to maxRetries
// times; a plane that keeps failing backs off exponentially (in poll
// ticks, capped at backoffCapTicks) and is quarantined for the rest
// of the run after quarAfter consecutive failed ticks.
func (s *Stream) pollTick() {
	s.samples++
	for i := range s.planes {
		s.samplePlane(i)
	}
}

// samplePlane performs one tick's retried sample of plane index i,
// honouring backoff and quarantine.
func (s *Stream) samplePlane(i int) {
	if s.quarantined[i] {
		return
	}
	if s.backoff[i] > 0 {
		s.backoff[i]--
		return
	}
	err := s.es.PollEvent(s.events[i])
	for attempt := 0; err != nil && attempt < s.maxRetries; attempt++ {
		s.retries++
		err = s.es.PollEvent(s.events[i])
	}
	if err == nil {
		s.consFails[i] = 0
		return
	}
	s.readErrs++
	s.consFails[i]++
	if s.consFails[i] >= s.quarAfter {
		s.quarantined[i] = true
		return
	}
	// Capped exponential backoff in device time: after f consecutive
	// failed ticks, skip 2^f ticks before trying again.
	b := 1 << s.consFails[i]
	if b > backoffCapTicks {
		b = backoffCapTicks
	}
	s.backoff[i] = b
}

// Observe advances the device through one power segment. Segments must
// arrive in time order; a non-monotone segment poisons the stream (the
// same error then surfaces from Finish). Misuse — Observe on a
// zero-value Stream or after Finish — returns a descriptive error
// without touching the event set. Use OnSegment to wire a Stream into
// the simulator.
func (s *Stream) Observe(seg sim.Segment) error {
	if s.es == nil {
		return fmt.Errorf("monitor: Observe on an unstarted Stream (construct with NewStream)")
	}
	if s.done {
		return fmt.Errorf("monitor: Observe after Finish on a stopped Stream")
	}
	if s.err != nil {
		return s.err
	}
	dt := seg.End - seg.Start
	if dt < 0 {
		s.err = fmt.Errorf("monitor: non-monotone segment [%v,%v)", seg.Start, seg.End)
		return s.err
	}
	if seg.Power.PKG > s.peak.PKG {
		s.peak.PKG = seg.Power.PKG
	}
	if seg.Power.PP0 > s.peak.PP0 {
		s.peak.PP0 = seg.Power.PP0
	}
	if seg.Power.DRAM > s.peak.DRAM {
		s.peak.DRAM = seg.Power.DRAM
	}
	if seg.Power.NIC > s.peak.NIC {
		s.peak.NIC = seg.Power.NIC
	}
	if seg.Power.Switch > s.peak.Switch {
		s.peak.Switch = seg.Power.Switch
	}
	s.dev.Advance(dt, seg.Power)
	return nil
}

// OnSegment is Observe shaped for sim.Config.OnSegment (which takes no
// error return). Errors are not lost: a poisoned or misused stream
// surfaces the same error from Finish.
func (s *Stream) OnSegment(seg sim.Segment) { _ = s.Observe(seg) }

// Finish stops the event set, takes the final sample, and reconciles
// the polled measurement against the device's exact energy totals.
// Finish is idempotent: the first call settles the stream's outcome
// and every later call returns the same report and error, so shutdown
// paths that double-Finish (a deferred cleanup racing an explicit
// one) cannot corrupt or duplicate anything.
func (s *Stream) Finish() (*Report, error) {
	if s.es == nil {
		return nil, fmt.Errorf("monitor: Finish on an unstarted Stream (construct with NewStream)")
	}
	if s.done {
		return s.finRep, s.finErr
	}
	s.done = true
	s.finRep, s.finErr = s.finish()
	return s.finRep, s.finErr
}

// finish is Finish's single-shot body.
func (s *Stream) finish() (*Report, error) {
	defer s.sp.End()
	s.dev.SetPoll(0, nil)
	if s.cfg.Faults != nil {
		// A degraded final sample: retry each live plane the same way a
		// tick does, so a transient fault at the very end does not cost
		// the run's tail energy. Quarantine can still fire here.
		for i := range s.planes {
			s.samplePlane(i)
		}
		defer s.dev.SetCounterFault(nil)
		defer s.dev.SetPollJitter(nil)
	}
	if s.err != nil {
		s.es.Stop()
		return nil, s.err
	}
	vals, stopErr := s.es.Stop()
	if stopErr != nil && s.cfg.Faults == nil {
		// Clean path: a failed final sample is a caller/stack bug, not
		// a degradation to absorb.
		return nil, stopErr
	}
	s.samples++ // Stop's final sample

	rep := &Report{
		PollInterval:   s.interval,
		Samples:        s.samples,
		Duration:       s.dev.Now() - s.t0,
		WrapJoules:     math.Pow(2, 32) * s.dev.EnergyUnit(),
		Retries:        s.retries,
		ReadErrors:     s.readErrs,
		DroppedSamples: s.es.Drops(),
	}
	var unsound []string
	for i, p := range s.planes {
		measured := float64(vals[i]) / 1e9
		truth := s.dev.TotalJoules(p) - s.truth0[i]
		pr := PlaneReport{
			Plane:       p,
			MeasuredJ:   measured,
			TruthJ:      truth,
			Quarantined: s.quarantined[i],
		}
		if pr.Quarantined {
			// Graceful degradation: the plane stopped answering, so its
			// figure falls back to the simulator's ground truth — a
			// modelled number, explicitly flagged, instead of a silently
			// wrong measured one (or a dead sweep).
			pr.MeasuredJ = truth
			rep.Quarantined = append(rep.Quarantined, p)
		}
		pr.AbsErr = pr.MeasuredJ - truth
		if truth != 0 {
			pr.RelErr = math.Abs(pr.AbsErr) / truth
		}
		// A correctly sampled measurement is short by at most one
		// counter quantum; any discrepancy near a multiple of the wrap
		// period is wraps lost (deficit) or spuriously gained (surplus).
		if deficit := truth - pr.MeasuredJ; deficit > rep.WrapJoules/2 {
			pr.LostWraps = int(math.Round(deficit / rep.WrapJoules))
		} else if -deficit > rep.WrapJoules/2 {
			pr.ExtraWraps = int(math.Round(-deficit / rep.WrapJoules))
		}
		rep.Planes = append(rep.Planes, pr)

		if maxGain := planeWatts(s.peak, p) * s.interval; maxGain >= rep.WrapJoules {
			unsound = append(unsound, p.String())
		}
	}
	// One undersampling warning per run, naming every affected plane —
	// not one per plane (or, worse, per segment) repeating the same
	// diagnosis.
	if len(unsound) > 0 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"%s: poll interval %gs can accumulate more than the %.0f J wrap period between samples at peak power — wrap correction is unsound",
			strings.Join(unsound, ", "), s.interval, rep.WrapJoules))
	}
	if rep.Duration > 0 && rep.Samples < 2 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"only %d sample(s) over %.4fs: poll interval %gs undersamples the run",
			rep.Samples, rep.Duration, s.interval))
	}
	for _, pr := range rep.Planes {
		if pr.Quarantined || pr.LostWraps > 0 || pr.ExtraWraps > 0 || math.Abs(pr.AbsErr) > DegradedAbsErrJ {
			rep.Degraded = true
		}
	}

	monitorStreams.Inc()
	monitorSamples.Add(int64(rep.Samples))
	monitorRetries.Add(int64(rep.Retries))
	monitorReadErrors.Add(int64(rep.ReadErrors))
	monitorQuarantined.Add(int64(len(rep.Quarantined)))
	monitorDropped.Add(int64(rep.DroppedSamples))
	if rep.Degraded {
		monitorDegraded.Inc()
	}
	for _, pr := range rep.Planes {
		monitorLostWraps.Add(int64(pr.LostWraps))
	}
	if s.sp.Live() {
		s.sp.ArgInt("samples", rep.Samples)
		s.sp.ArgFloat("device_s", rep.Duration)
		if rep.Degraded {
			s.sp.Arg("degraded", "true")
		}
	}
	return rep, nil
}

// Replay feeds a simulator timeline into the RAPL device segment by
// segment, sampling through a PAPI event set every cfg.PollInterval
// seconds of device time, and reconciles the measurement against the
// device's exact energy totals. It is the batch form of Stream.
func Replay(segs []sim.Segment, cfg Config) (*Report, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		s.Observe(seg)
	}
	return s.Finish()
}
