package sim

import (
	"math/bits"
	"slices"
)

// hbitmap is a hierarchical bitmap over a fixed universe [0, n): each
// level-k+1 bit summarizes whether the corresponding level-k word is
// nonzero, and the top level is always a single word. set, clear, has
// and firstFrom are all O(log₆₄ n) — at most 4 levels for n = 10⁶ —
// which is what keeps the scheduler's idle-worker lookups off the
// O(workers) scans the seed list scheduler performed.
type hbitmap struct {
	levels [][]uint64
}

// reset empties the bitmap and resizes it to [0, n), n ≥ 1, reusing
// the words it has.
func (b *hbitmap) reset(n int) {
	for lv := 0; ; lv++ {
		words := (n + 63) >> 6
		if lv == len(b.levels) {
			b.levels = append(b.levels, nil)
		}
		b.levels[lv] = slices.Grow(b.levels[lv][:0], words)[:words]
		clear(b.levels[lv])
		if words == 1 {
			b.levels = b.levels[:lv+1]
			return
		}
		n = words
	}
}

// has reports whether bit i is set.
func (b *hbitmap) has(i int) bool {
	return b.levels[0][i>>6]>>uint(i&63)&1 == 1
}

// set sets bit i, updating summaries. Idempotent.
func (b *hbitmap) set(i int) {
	for lv := 0; lv < len(b.levels); lv++ {
		wi := i >> 6
		old := b.levels[lv][wi]
		b.levels[lv][wi] = old | 1<<uint(i&63)
		if old != 0 {
			return // summary bit above is already set
		}
		i = wi
	}
}

// clear clears bit i, updating summaries. Idempotent.
func (b *hbitmap) clear(i int) {
	for lv := 0; lv < len(b.levels); lv++ {
		wi := i >> 6
		b.levels[lv][wi] &^= 1 << uint(i&63)
		if b.levels[lv][wi] != 0 {
			return // word still nonzero; summary bit stays
		}
		i = wi
	}
}

// firstFrom returns the smallest set bit ≥ i, or -1 when none exists.
func (b *hbitmap) firstFrom(i int) int {
	if i < 0 {
		i = 0
	}
	// Ascend until some level has a set bit at or after the current
	// position. Positions translate up a level by becoming word indices.
	lv, pos := 0, i
	for {
		if lv == len(b.levels) {
			return -1
		}
		wi := pos >> 6
		if wi >= len(b.levels[lv]) {
			return -1
		}
		if w := b.levels[lv][wi] >> uint(pos&63); w != 0 {
			pos += bits.TrailingZeros64(w)
			break
		}
		pos = wi + 1
		lv++
	}
	// Descend: a set summary bit at position p means word p below is
	// nonzero; expand to its lowest set bit until level 0.
	for lv > 0 {
		lv--
		pos = pos<<6 + bits.TrailingZeros64(b.levels[lv][pos])
	}
	return pos
}
