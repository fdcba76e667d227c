package sim

import (
	"math/rand"
	"testing"

	"capscale/internal/task"
)

func TestOnSegmentStreamsTheTimeline(t *testing.T) {
	m := machine()
	rng := rand.New(rand.NewSource(11))
	root := randomSimTree(rng, 4)

	var streamed []Segment
	res := Run(m, root, Config{
		Workers:        4,
		RecordTimeline: true,
		OnSegment:      func(s Segment) { streamed = append(streamed, s) },
	})
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	if len(streamed) != len(res.Timeline) {
		t.Fatalf("streamed %d segments, timeline has %d", len(streamed), len(res.Timeline))
	}
	for i, seg := range streamed {
		if seg != res.Timeline[i] {
			t.Fatalf("segment %d: streamed %+v != recorded %+v", i, seg, res.Timeline[i])
		}
	}
}

func TestOnSegmentWithoutTimeline(t *testing.T) {
	// Streaming must not require RecordTimeline: the callback fires and
	// the result carries no materialized timeline.
	var n int
	var a task.Arena
	res := Run(machine(), a.Node(computeLeaf(&a, 1e8)), Config{
		Workers:   1,
		OnSegment: func(Segment) { n++ },
	})
	if n == 0 {
		t.Fatal("OnSegment never fired")
	}
	if res.Timeline != nil {
		t.Fatal("timeline recorded without RecordTimeline")
	}
}
