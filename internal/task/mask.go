package task

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxWorkers is the largest worker index + 1 any affinity mask can
// name. It bounds the simulator's representable concurrency (2^20 ≈
// 10^6 simulated workers) and exists so that mask construction fails
// loudly on impossible indices instead of silently dropping bits the
// way the historical uint64 representation did for workers ≥ 64.
const MaxWorkers = 1 << 20

// Mask is a set of worker indices used for affinity annotation. The
// zero Mask is the empty set, which every consumer treats as
// "unrestricted" — the same convention the historical uint64 affinity
// followed for mask 0.
//
// Representation is a small-set/bitset hybrid: workers 0..63 live in
// an inline word, so every mask a ≤64-worker build constructs is
// allocation-free and exactly as cheap as the old uint64; workers ≥ 64
// spill into a word-aligned window (base + words) sized to the span of
// high indices actually present, so a mask pinning worker 900 000 costs
// one word, not a 14 000-word bitset from zero.
//
// Masks are immutable after construction. Intersect may return a Mask
// sharing an operand's window, which is safe precisely because nothing
// mutates a built Mask.
type Mask struct {
	// lo holds workers 0..63, bit w = worker w.
	lo uint64
	// base is the first worker index covered by words; a multiple of
	// 64, ≥ 64. Meaningful only when words is non-empty.
	base int
	// words[i] bit j = worker base + 64*i + j. Constructors and
	// Intersect maintain the trimmed invariant: when non-empty, the
	// first and last words are nonzero, so Min and Max are O(1).
	words []uint64
}

// checkWorker panics on indices no mask can represent.
func checkWorker(w int) {
	if w < 0 || w >= MaxWorkers {
		panic(fmt.Sprintf("task: worker index %d outside [0,%d)", w, MaxWorkers))
	}
}

// SingleWorker returns the mask naming exactly worker w. It panics on
// negative indices and on indices ≥ MaxWorkers — the loud replacement
// for the silent bit loss of 1<<w at w ≥ 64.
func SingleWorker(w int) Mask {
	checkWorker(w)
	if w < 64 {
		return Mask{lo: 1 << uint(w)}
	}
	return Mask{base: w &^ 63, words: []uint64{1 << uint(w&63)}}
}

// MaskRange returns the mask naming every worker in [lo, hi]
// inclusive. It panics when the range is empty or out of bounds.
func MaskRange(lo, hi int) Mask {
	checkWorker(lo)
	checkWorker(hi)
	if hi < lo {
		panic(fmt.Sprintf("task: empty worker range [%d,%d]", lo, hi))
	}
	var m Mask
	if lo < 64 {
		hiLo := hi
		if hiLo > 63 {
			hiLo = 63
		}
		m.lo = rangeWord(uint(lo), uint(hiLo))
		if hi < 64 {
			return m
		}
		lo = 64
	}
	m.base = lo &^ 63
	m.words = make([]uint64, hi>>6-m.base>>6+1)
	for i := range m.words {
		first, last := uint(0), uint(63)
		if i == 0 {
			first = uint(lo & 63)
		}
		if i == len(m.words)-1 {
			last = uint(hi & 63)
		}
		m.words[i] = rangeWord(first, last)
	}
	return m
}

// rangeWord returns a word with bits [first, last] set.
func rangeWord(first, last uint) uint64 {
	w := ^uint64(0) << first
	if last < 63 {
		w &= (uint64(1) << (last + 1)) - 1
	}
	return w
}

// MaskOfBits adopts a legacy uint64 mask (bit w = worker w, workers
// 0..63 only), without allocating.
func MaskOfBits(bits uint64) Mask { return Mask{lo: bits} }

// MaskOf returns the mask naming exactly the given workers.
func MaskOf(workers ...int) Mask {
	m := Mask{}
	lo, hi := MaxWorkers, -1
	for _, w := range workers {
		checkWorker(w)
		if w >= 64 {
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		} else {
			m.lo |= 1 << uint(w)
		}
	}
	if hi >= 0 {
		m.base = lo &^ 63
		m.words = make([]uint64, hi>>6-m.base>>6+1)
		for _, w := range workers {
			if w >= 64 {
				m.words[w>>6-m.base>>6] |= 1 << uint(w&63)
			}
		}
	}
	return m
}

// IsEmpty reports whether the mask names no worker. Consumers read an
// empty mask as "unrestricted".
func (m Mask) IsEmpty() bool { return m.lo == 0 && len(m.words) == 0 }

// Has reports whether worker w is in the mask. Out-of-range indices
// (including negatives) are simply absent.
func (m Mask) Has(w int) bool {
	if w < 0 {
		return false
	}
	if w < 64 {
		return m.lo>>uint(w)&1 == 1
	}
	i := w>>6 - m.base>>6
	if len(m.words) == 0 || i < 0 || i >= len(m.words) {
		return false
	}
	return m.words[i]>>uint(w&63)&1 == 1
}

// Count returns the number of workers in the mask.
func (m Mask) Count() int {
	n := bits.OnesCount64(m.lo)
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Single returns the worker index when the mask names exactly one
// worker, else -1.
func (m Mask) Single() int {
	switch {
	case m.lo != 0:
		if len(m.words) != 0 || m.lo&(m.lo-1) != 0 {
			return -1
		}
		return bits.TrailingZeros64(m.lo)
	case len(m.words) == 1 && m.words[0]&(m.words[0]-1) == 0 && m.words[0] != 0:
		return m.base + bits.TrailingZeros64(m.words[0])
	default:
		return -1
	}
}

// Min returns the smallest worker in the mask, or -1 when empty.
// O(1) under the trimmed-window invariant.
func (m Mask) Min() int {
	if m.lo != 0 {
		return bits.TrailingZeros64(m.lo)
	}
	if len(m.words) == 0 {
		return -1
	}
	return m.base + bits.TrailingZeros64(m.words[0])
}

// Max returns the largest worker in the mask, or -1 when empty.
func (m Mask) Max() int {
	if n := len(m.words); n != 0 {
		return m.base + (n-1)<<6 + 63 - bits.LeadingZeros64(m.words[n-1])
	}
	if m.lo == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(m.lo)
}

// contains reports whether every worker of o is also in m.
func (m Mask) contains(o Mask) bool {
	if o.lo&^m.lo != 0 {
		return false
	}
	for i, w := range o.words {
		if w == 0 {
			continue
		}
		j := i + o.base>>6 - m.base>>6
		if len(m.words) == 0 || j < 0 || j >= len(m.words) || w&^m.words[j] != 0 {
			return false
		}
	}
	return true
}

// Intersect returns the set intersection. When one operand is
// contained in the other, the contained operand is returned as-is —
// the common case when affinities narrow down a task tree — so the
// steady state allocates nothing even above 64 workers.
func (m Mask) Intersect(o Mask) Mask {
	if m.contains(o) {
		return o
	}
	if o.contains(m) {
		return m
	}
	out := Mask{lo: m.lo & o.lo}
	if len(m.words) != 0 && len(o.words) != 0 {
		lo := m.base
		if o.base > lo {
			lo = o.base
		}
		hi := m.base + len(m.words)<<6
		if h := o.base + len(o.words)<<6; h < hi {
			hi = h
		}
		first, last := -1, -1
		var words []uint64
		if lo < hi {
			words = make([]uint64, (hi-lo)>>6)
			for i := range words {
				w := m.words[(lo-m.base)>>6+i] & o.words[(lo-o.base)>>6+i]
				words[i] = w
				if w != 0 {
					if first < 0 {
						first = i
					}
					last = i
				}
			}
		}
		if first >= 0 {
			out.base = lo + first<<6
			out.words = words[first : last+1]
		}
	}
	return out
}

// Equal reports set equality.
func (m Mask) Equal(o Mask) bool { return m.contains(o) && o.contains(m) }

// LowBits returns the uint64 view of workers 0..63 — the exact value
// the historical affinity representation carried. Workers ≥ 64 are not
// representable in it; callers using LowBits assert a ≤64-worker
// context (the seed-scheduler reference does).
func (m Mask) LowBits() uint64 { return m.lo }

// String renders the mask for debugging: "{}" when empty, else a
// compact list of indices and ranges.
func (m Mask) String() string {
	if m.IsEmpty() {
		return "{}"
	}
	var sb strings.Builder
	sb.WriteByte('{')
	start, prev := -2, -2
	flush := func() {
		if start < 0 {
			return
		}
		if sb.Len() > 1 {
			sb.WriteByte(',')
		}
		if start == prev {
			fmt.Fprintf(&sb, "%d", start)
		} else {
			fmt.Fprintf(&sb, "%d-%d", start, prev)
		}
	}
	emit := func(w int) {
		if w != prev+1 {
			flush()
			start = w
		}
		prev = w
	}
	for w := m.Min(); w >= 0; w = m.Next(w + 1) {
		emit(w)
	}
	flush()
	sb.WriteByte('}')
	return sb.String()
}

// Next returns the smallest member ≥ from, or -1 when none.
func (m Mask) Next(from int) int {
	if from < 64 {
		if from < 0 {
			from = 0
		}
		if rem := m.lo >> uint(from); rem != 0 {
			return from + bits.TrailingZeros64(rem)
		}
		from = 64
	}
	if len(m.words) == 0 {
		return -1
	}
	if from < m.base {
		from = m.base
	}
	for i := (from - m.base) >> 6; i < len(m.words); i++ {
		w := m.words[i]
		if i == (from-m.base)>>6 {
			w >>= uint(from & 63)
			w <<= uint(from & 63)
		}
		if w != 0 {
			return m.base + i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
