// Package obs is the repository's observability layer: span tracing,
// a process-wide metrics registry, and a Chrome trace-event (Perfetto)
// exporter that merges driver spans with the simulator's power
// timeline.
//
// The paper's whole argument rests on seeing where time and joules go
// (its Fig. 3–6 power-over-time traces are the evidence for the EP
// model); this package gives the now-concurrent pipeline the same
// lens: where a cell spends its wall-clock, how busy the driver's
// workers are, how often the run cache hits, how many samples the
// monitor observed.
//
// Tracing is off by default and compiled down to a handful of atomic
// loads on the hot paths: every StartOn/End on a disabled collector is a
// no-op that performs zero allocations, so instrumented code pays
// nothing until someone calls Enable (the CLIs do when -trace-out is
// given). Metrics are always live — they are single atomic adds, far
// below measurement noise at the granularity they are wired at.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates span tracing. Collector pointers are published through
// current so spans started before a Disable still append to the
// collector they were started on.
var (
	enabled atomic.Bool
	current atomic.Pointer[Collector]
)

// Enabled reports whether span tracing is collecting. Hot paths use it
// to skip span construction (and any argument formatting) entirely.
func Enabled() bool { return enabled.Load() }

// Enable installs a fresh global collector and turns tracing on,
// returning the collector so the caller can export it later.
func Enable() *Collector {
	c := NewCollector()
	current.Store(c)
	enabled.Store(true)
	return c
}

// Disable turns span tracing off. Spans already started keep a
// reference to their collector and still record on End; new Starts
// become no-ops.
func Disable() {
	enabled.Store(false)
	current.Store(nil)
}

// SpanEvent is one recorded span: a named interval on a track.
// Timestamps are wall-clock durations since the collector's epoch.
type SpanEvent struct {
	Name  string
	Track int32
	Start time.Duration
	Dur   time.Duration
	// Args are optional key/value annotations (algorithm, size, cache
	// verdict, ...). Nil for un-annotated spans.
	Args map[string]string
}

// Collector accumulates span events. It is safe for concurrent use;
// the append path is one short critical section.
type Collector struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []SpanEvent
	tracks []string // track id → display name; id 0 is "main"
}

// NewCollector returns an empty collector with its epoch at now.
// Most callers want Enable, which also installs it globally.
func NewCollector() *Collector {
	return &Collector{epoch: time.Now(), tracks: []string{"main"}}
}

// Epoch returns the collector's time zero.
func (c *Collector) Epoch() time.Time { return c.epoch }

// Spans returns a copy of the recorded span events.
func (c *Collector) Spans() []SpanEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanEvent(nil), c.spans...)
}

// TrackNames returns the track display names indexed by track id.
func (c *Collector) TrackNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.tracks...)
}

// Track identifies one span track (one row in the exported trace —
// typically one per worker goroutine). The zero Track is valid: it
// targets the active collector's "main" track, or nothing when
// tracing is disabled.
type Track struct {
	c  *Collector
	id int32
}

// NewTrack registers a named track on the active collector. When
// tracing is disabled it returns the zero Track; callers on hot paths
// should guard the (formatting of the) name with Enabled().
func NewTrack(name string) Track {
	c := current.Load()
	if c == nil {
		return Track{}
	}
	return c.NewTrack(name)
}

// NewTrack registers a named track on this collector.
func (c *Collector) NewTrack(name string) Track {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracks = append(c.tracks, name)
	return Track{c: c, id: int32(len(c.tracks) - 1)}
}

// Span is one in-flight interval. The zero Span is a no-op: End and
// the Arg methods return immediately, so disabled paths cost nothing.
// Spans are values; do not copy a live Span and End both copies.
type Span struct {
	c     *Collector
	name  string
	track int32
	start time.Duration
	args  map[string]string
}

// Live reports whether the span will record on End. Use it to skip
// argument formatting on disabled paths.
func (s *Span) Live() bool { return s.c != nil }

// StartOn begins a span on a track. A zero Track falls back to the
// active collector's "main" track; when tracing is disabled the
// returned Span is the zero no-op, allocating nothing.
func StartOn(t Track, name string) Span {
	c := t.c
	if c == nil {
		if !enabled.Load() {
			return Span{}
		}
		c = current.Load()
		if c == nil {
			return Span{}
		}
	}
	return Span{c: c, name: name, track: t.id, start: time.Since(c.epoch)}
}

// Arg annotates a live span with a string value; no-op on a dead span.
func (s *Span) Arg(key, value string) {
	if s.c == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]string, 4)
	}
	s.args[key] = value
}

// ArgInt annotates a live span with an integer. Formatting happens
// only when the span is live, so disabled paths never allocate.
func (s *Span) ArgInt(key string, v int) {
	if s.c == nil {
		return
	}
	s.Arg(key, fmt.Sprintf("%d", v))
}

// ArgFloat annotates a live span with a float.
func (s *Span) ArgFloat(key string, v float64) {
	if s.c == nil {
		return
	}
	s.Arg(key, fmt.Sprintf("%g", v))
}

// End records the span. Calling End on the zero Span is a no-op; End
// must be called at most once per started span.
func (s *Span) End() {
	c := s.c
	if c == nil {
		return
	}
	ev := SpanEvent{
		Name:  s.name,
		Track: s.track,
		Start: s.start,
		Dur:   time.Since(c.epoch) - s.start,
		Args:  s.args,
	}
	s.c = nil
	c.mu.Lock()
	c.spans = append(c.spans, ev)
	c.mu.Unlock()
}
