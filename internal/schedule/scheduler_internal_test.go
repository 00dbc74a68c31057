package schedule

import "testing"

// A child whose window holds only hedge losses has zero throughput. When
// it is the only child a chunk may still go to (a hedge target, or the
// survivor after a resubmission), choose must return it, not -1.
func TestChooseZeroThroughputChild(t *testing.T) {
	s, err := NewShardWith(ShardOptions{}, Local{}, Local{})
	if err != nil {
		t.Fatal(err)
	}
	s.children[0].observe(0, 0.05)
	if got := s.choose([]int{0}, 4); got != 0 {
		t.Fatalf("choose over the zero-throughput child alone = %d, want 0", got)
	}
	s.children[1].observe(4, 0.01)
	if got := s.choose([]int{0, 1}, 4); got != 1 {
		t.Fatalf("choose = %d, want the measured child 1", got)
	}
	s.children[1] = shardChild{backend: Local{}}
	s.children[1].observe(0, 0.05)
	s.children[0].inFlightChunks = 2
	if got := s.choose([]int{0, 1}, 4); got != 1 {
		t.Fatalf("choose between two zero-throughput children = %d, want the less loaded 1", got)
	}
}
