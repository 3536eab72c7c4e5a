package server

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"imrdmd/internal/stream"
)

// TestLatencyQuantilesMatchSortSlice: the published p50 and p99 are the
// ones the reflection-based sort.Slice gave, on a ring filling up and on
// a full ring that has wrapped, with repeated latencies among them.
func TestLatencyQuantilesMatchSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var tn tenant
	for k := 1; k <= latencyWindow+latencyWindow/3; k++ {
		tn.recordLatency(time.Duration(rng.Intn(5000)) * time.Microsecond)
		if k%509 != 0 && k != latencyWindow && k != latencyWindow+1 {
			continue
		}
		ref := append([]time.Duration(nil), tn.latencies...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		p50, p99 := tn.latencyQuantiles()
		if want50, want99 := stream.Quantile(ref, 0.50), stream.Quantile(ref, 0.99); p50 != want50 || p99 != want99 {
			t.Fatalf("after %d batches: p50 %v p99 %v, sort.Slice gives %v %v", k, p50, p99, want50, want99)
		}
	}
	if len(tn.latencies) != latencyWindow || tn.latPos == 0 {
		t.Fatalf("ring holds %d latencies at position %d; want a full, wrapped ring", len(tn.latencies), tn.latPos)
	}
}
