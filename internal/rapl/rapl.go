// Package rapl emulates the Intel Running Average Power Limit (RAPL)
// energy-reporting interface the paper reads through PAPI.
//
// The emulation is register-accurate where it matters to measurement
// code: a MSR_RAPL_POWER_UNIT register whose ENERGY_STATUS_UNITS field
// declares the energy quantum (2⁻¹⁶ J ≈ 15.3 µJ by default, the
// Haswell value), and 32-bit wrapping ENERGY_STATUS counters for the
// PKG, PP0 and DRAM planes. Consumers must apply the unit register and
// correct for wraparound exactly as they would against real silicon —
// internal/papi does, and its tests exercise the wrap path.
//
// Energy enters the device from the machine power model: the simulator
// (or a live run) advances the device through (duration, plane-power)
// segments and the device integrates them into counter units.
package rapl

import (
	"fmt"
	"math"

	"capscale/internal/hw"
)

// MSR addresses, as on real Intel parts (and as listed in
// /dev/cpu/*/msr consumers like PAPI's RAPL component).
const (
	MSRPowerUnit        = 0x606
	MSRPkgEnergyStatus  = 0x611
	MSRDramEnergyStatus = 0x619
	MSRPP0EnergyStatus  = 0x639
	// The NIC and switch ENERGY_STATUS registers are this emulation's
	// extension for distributed runs: RAPL-like 32-bit wrapping
	// counters for the interconnect planes, modeled on the PSYS
	// (platform) counter at 0x64D that covers energy outside the
	// package on real Skylake+ parts.
	MSRNicEnergyStatus    = 0x64C
	MSRSwitchEnergyStatus = 0x64D
)

// Plane identifies one RAPL power plane.
type Plane int

const (
	// PlanePKG is the whole processor package (includes the cores).
	PlanePKG Plane = iota
	// PlanePP0 is power plane 0: the cores.
	PlanePP0
	// PlaneDRAM is the memory DIMMs.
	PlaneDRAM
	// PlaneNIC is the nodes' network adapters — a RAPL-like plane the
	// distributed monitor samples; always zero on single-node runs.
	PlaneNIC
	// PlaneSwitch is the fabric's switching tiers, the PSYS-style
	// "everything else" plane of a cluster.
	PlaneSwitch
	numPlanes
)

// NumPlanes is the total emulated plane count (node + interconnect),
// for consumers that size per-plane state arrays.
const NumPlanes = int(numPlanes)

var planeNames = [...]string{"PKG", "PP0", "DRAM", "NIC", "SWITCH"}

func (p Plane) String() string {
	if p < 0 || p >= numPlanes {
		return fmt.Sprintf("Plane(%d)", int(p))
	}
	return planeNames[p]
}

// Planes lists the node-local planes real RAPL exposes — the set a
// single-node measurement samples.
func Planes() []Plane { return []Plane{PlanePKG, PlanePP0, PlaneDRAM} }

// ClusterPlanes lists every emulated plane including the interconnect
// extensions — the set a distributed measurement samples.
func ClusterPlanes() []Plane {
	return []Plane{PlanePKG, PlanePP0, PlaneDRAM, PlaneNIC, PlaneSwitch}
}

// defaultESU is the ENERGY_STATUS_UNITS exponent: energy unit =
// 1/2^esu joules. 16 is the client-Haswell value (≈15.3 µJ).
const defaultESU = 16

// CounterFault intercepts wrapped ENERGY_STATUS counter reads: it
// receives the true 32-bit wrapped value and returns what the
// consumer observes, or an error modelling a failed MSR read. A fault
// injector (internal/faults) installs one; nil (the default) costs
// the read path nothing.
type CounterFault func(p Plane, wrapped uint64) (uint64, error)

// PollJitterFn perturbs poll-tick timing: it returns an offset in
// seconds added to tick number `tick` of nominal period `interval`.
// The device clamps offsets into [0, interval) so jittered ticks stay
// strictly monotone.
type PollJitterFn func(tick int64, interval float64) float64

// Device is one emulated processor package's RAPL interface.
type Device struct {
	esu    uint
	totalJ [numPlanes]float64
	// now is the device's notion of elapsed time, for timestamped
	// trace export.
	now float64

	// Poll hook (SetPoll): pollFn fires every pollInterval seconds of
	// device time. pollStart/pollCount derive each tick as
	// pollStart + count·interval so long runs accumulate no float
	// drift.
	pollInterval float64
	pollFn       func()
	pollStart    float64
	pollCount    int64

	// Fault hooks (nil = clean silicon).
	counterFault CounterFault
	pollJitter   PollJitterFn
	// jitterOff caches the current tick's jitter draw so re-evaluating
	// the tick across Advance calls does not re-roll it.
	jitterOff   float64
	jitterValid bool
}

// NewDevice returns a device with the Haswell energy unit.
func NewDevice() *Device { return &Device{esu: defaultESU} }

// NewDeviceWithESU returns a device with a custom
// ENERGY_STATUS_UNITS exponent (0 < esu ≤ 31).
func NewDeviceWithESU(esu uint) (*Device, error) {
	if esu == 0 || esu > 31 {
		return nil, fmt.Errorf("rapl: ESU exponent %d out of range (1..31)", esu)
	}
	return &Device{esu: esu}, nil
}

// EnergyUnit returns the joules represented by one counter increment.
func (d *Device) EnergyUnit() float64 { return 1 / math.Pow(2, float64(d.esu)) }

// Advance integrates plane power p over dt seconds into the energy
// counters. It panics on negative dt (time does not run backwards).
// When a poller is registered (SetPoll), the integration is split at
// every poll tick inside the interval so the poller observes the
// counters exactly as a timer thread on real silicon would —
// including mid-segment, which is what makes wrap correction across
// long constant-power stretches possible.
func (d *Device) Advance(dt float64, p hw.PlanePower) {
	if dt < 0 {
		panic(fmt.Sprintf("rapl: negative interval %v", dt))
	}
	if d.pollFn == nil {
		d.integrate(dt, p)
		d.now += dt
		return
	}
	end := d.now + dt
	for {
		tick := d.pollStart + float64(d.pollCount+1)*d.pollInterval + d.tickJitter()
		if tick > end {
			break
		}
		if step := tick - d.now; step > 0 {
			d.integrate(step, p)
		}
		d.now = tick
		d.pollCount++
		d.jitterValid = false
		d.pollFn()
	}
	if step := end - d.now; step > 0 {
		d.integrate(step, p)
	}
	d.now = end
}

// integrate accumulates energy without touching the clock.
func (d *Device) integrate(dt float64, p hw.PlanePower) {
	d.totalJ[PlanePKG] += p.PKG * dt
	d.totalJ[PlanePP0] += p.PP0 * dt
	d.totalJ[PlaneDRAM] += p.DRAM * dt
	d.totalJ[PlaneNIC] += p.NIC * dt
	d.totalJ[PlaneSwitch] += p.Switch * dt
}

// SetPoll registers fn to be invoked every interval seconds of device
// time, starting one interval after the current instant — the virtual
// equivalent of the timer thread a PAPI-based monitor runs.
// SetPoll(0, nil) removes the poller. Mixed arguments are caller
// bugs and panic with a descriptive message: a positive interval with
// a nil callback would silently never fire, and a registered callback
// with a non-positive interval would fire never (or, worse, be taken
// for a removal).
func (d *Device) SetPoll(interval float64, fn func()) {
	if interval <= 0 && fn == nil {
		d.pollInterval, d.pollFn = 0, nil
		d.jitterValid = false
		return
	}
	if fn == nil {
		panic(fmt.Sprintf("rapl: SetPoll(%v, nil): nil callback with a positive interval (use SetPoll(0, nil) to remove the poller)", interval))
	}
	if interval <= 0 {
		panic(fmt.Sprintf("rapl: SetPoll: non-positive interval %v with a live callback (use SetPoll(0, nil) to remove the poller)", interval))
	}
	d.pollInterval, d.pollFn = interval, fn
	d.pollStart = d.now
	d.pollCount = 0
	d.jitterValid = false
}

// SetCounterFault installs (or, with nil, removes) the counter-read
// fault hook. Consumers see faulted values through ReadMSR and
// Meter.SamplePlane; the device's own integration and TotalJoules
// ground truth are never affected.
func (d *Device) SetCounterFault(f CounterFault) { d.counterFault = f }

// SetPollJitter installs (or, with nil, removes) the poll-tick jitter
// hook. Offsets are clamped into [0, interval) so ticks stay strictly
// monotone and never regress past device time.
func (d *Device) SetPollJitter(f PollJitterFn) {
	d.pollJitter = f
	d.jitterValid = false
}

// tickJitter returns the (cached) jitter offset of the next poll
// tick, clamped to strictly less than one interval.
func (d *Device) tickJitter() float64 {
	if d.pollJitter == nil {
		return 0
	}
	if !d.jitterValid {
		off := d.pollJitter(d.pollCount+1, d.pollInterval)
		if off < 0 {
			off = 0
		}
		if max := d.pollInterval * 0.999; off > max {
			off = max
		}
		d.jitterOff, d.jitterValid = off, true
	}
	return d.jitterOff
}

// Now returns the device's elapsed time in seconds.
func (d *Device) Now() float64 { return d.now }

// TotalJoules returns the exact accumulated energy of a plane — ground
// truth for validating measurement code, not reachable through the MSR
// interface.
func (d *Device) TotalJoules(p Plane) float64 {
	if p < 0 || p >= numPlanes {
		panic(fmt.Sprintf("rapl: bad plane %d", int(p)))
	}
	return d.totalJ[p]
}

// counter returns the 32-bit wrapped ENERGY_STATUS value for a plane.
func (d *Device) counter(p Plane) uint64 {
	units := uint64(d.totalJ[p] / d.EnergyUnit())
	return units & 0xFFFFFFFF
}

// readCounter returns the wrapped counter as a consumer observes it:
// the true value routed through any installed fault hook.
func (d *Device) readCounter(p Plane) (uint64, error) {
	raw := d.counter(p)
	if d.counterFault == nil {
		return raw, nil
	}
	return d.counterFault(p, raw)
}

// ReadMSR emulates reading a model-specific register, the way the
// msr(4) device or the perf events sysfs interface exposes RAPL.
func (d *Device) ReadMSR(addr uint32) (uint64, error) {
	switch addr {
	case MSRPowerUnit:
		// Bits 12:8 hold ENERGY_STATUS_UNITS; power and time unit
		// fields are filled with their documented Haswell defaults.
		const powerUnits = 0x3 // 1/8 W
		const timeUnits = 0xA  // 976 µs
		return powerUnits | uint64(d.esu)<<8 | timeUnits<<16, nil
	case MSRPkgEnergyStatus:
		return d.readCounter(PlanePKG)
	case MSRPP0EnergyStatus:
		return d.readCounter(PlanePP0)
	case MSRDramEnergyStatus:
		return d.readCounter(PlaneDRAM)
	case MSRNicEnergyStatus:
		return d.readCounter(PlaneNIC)
	case MSRSwitchEnergyStatus:
		return d.readCounter(PlaneSwitch)
	default:
		return 0, fmt.Errorf("rapl: unimplemented MSR 0x%x", addr)
	}
}

// EnergyUnitFromPowerUnitMSR decodes the ENERGY_STATUS_UNITS field of
// a MSR_RAPL_POWER_UNIT value into joules per count — the decode every
// RAPL consumer must perform.
func EnergyUnitFromPowerUnitMSR(v uint64) float64 {
	esu := (v >> 8) & 0x1F
	return 1 / math.Pow(2, float64(esu))
}

// Meter accumulates wrap-corrected energy readings from a device, the
// way a PAPI-style consumer polls ENERGY_STATUS. Sample must be called
// at least once per counter wrap period (≈65 kJ at the default unit;
// over 20 minutes at 50 W) or energy is lost exactly as it would be on
// hardware.
type Meter struct {
	dev     *Device
	started bool
	last    [numPlanes]uint64
	accum   [numPlanes]float64 // joules
}

// NewMeter returns a meter for dev. Call Start before sampling.
func NewMeter(dev *Device) *Meter { return &Meter{dev: dev} }

// Start snapshots the counters; subsequent samples measure energy
// relative to this point. The snapshot bypasses any fault hook: the
// measurement window opens on the true counter values, and every
// fault thereafter is attributable to the read path.
func (m *Meter) Start() {
	for _, p := range ClusterPlanes() {
		m.last[p] = m.dev.counter(p)
		m.accum[p] = 0
	}
	m.started = true
}

// SamplePlane reads one plane's counter through any installed fault
// hook and accumulates its wrap-corrected delta. On error the plane's
// accumulation is untouched; because ENERGY_STATUS is cumulative, a
// later successful sample recovers the energy — unless a wrap passes
// in between, which is exactly the loss mode the monitor's retry and
// quarantine machinery bounds. It panics if Start was never called.
func (m *Meter) SamplePlane(p Plane) error {
	if !m.started {
		panic("rapl: Meter.Sample before Start")
	}
	if p < 0 || p >= numPlanes {
		panic(fmt.Sprintf("rapl: bad plane %d", int(p)))
	}
	cur, err := m.dev.readCounter(p)
	if err != nil {
		return fmt.Errorf("rapl: sampling %v: %w", p, err)
	}
	delta := (cur - m.last[p]) & 0xFFFFFFFF
	m.accum[p] += float64(delta) * m.dev.EnergyUnit()
	m.last[p] = cur
	return nil
}

// Sample reads every plane's counter, corrects 32-bit wraparound, and
// accumulates the deltas. Planes whose read fails keep their previous
// accumulation; the first error is returned after every plane has
// been attempted. It panics if Start was never called.
func (m *Meter) Sample() error {
	var first error
	for _, p := range Planes() {
		if err := m.SamplePlane(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Joules returns the wrap-corrected energy accumulated since Start.
func (m *Meter) Joules(p Plane) float64 {
	if p < 0 || p >= numPlanes {
		panic(fmt.Sprintf("rapl: bad plane %d", int(p)))
	}
	return m.accum[p]
}
