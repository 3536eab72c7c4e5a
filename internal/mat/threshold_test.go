package mat

import (
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// TestParallelThresholdBoundary pins the fan-out decision exactly at the
// threshold. parallelThreshold is documented as the flop count *above*
// which kernels split across the engine; the pre-fix comparison fanned
// out at equality too, so a 64×64×64 multiply (exactly 2¹⁸ flops) paid
// the handoff overhead the constant exists to avoid.
func TestParallelThresholdBoundary(t *testing.T) {
	eng := compute.NewEngine(4)
	defer eng.Close()

	if 64*64*64 != parallelThreshold {
		t.Fatalf("test assumes 64³ == parallelThreshold (%d)", parallelThreshold)
	}
	if fanOut(eng, parallelThreshold) {
		t.Fatal("a problem of exactly parallelThreshold flops must stay serial")
	}
	if !fanOut(eng, parallelThreshold+1) {
		t.Fatal("a problem strictly above parallelThreshold must fan out")
	}
	if fanOut(nil, parallelThreshold+1) {
		t.Fatal("a nil engine must never fan out")
	}
	if fanOut(compute.NewEngine(1), parallelThreshold+1) {
		t.Fatal("a single-lane engine must never fan out")
	}
}

// TestThresholdBoundaryBitIdentical runs the three routed kernels at
// exactly the threshold size on a multi-lane engine and requires
// bit-for-bit agreement with the serial path: at the boundary both must
// take the same (serial, packed) route, and above it the panel-aligned
// fan-out preserves per-element accumulation order anyway.
func TestThresholdBoundaryBitIdentical(t *testing.T) {
	eng := compute.NewEngine(4)
	defer eng.Close()
	rng := rand.New(rand.NewSource(17))

	for _, n := range []int{64, 65} { // at the boundary, and just above it
		a := randDense(rng, n, 64)
		b := randDense(rng, 64, 64)
		assertIdentical(t, "Mul@threshold", MulWith(nil, nil, a, b), MulWith(eng, nil, a, b))

		at := randDense(rng, 64, n)
		assertIdentical(t, "MulT@threshold", MulTWith(nil, nil, at, b), MulTWith(eng, nil, at, b))

		g := randDense(rng, n, 64)
		assertIdentical(t, "Gram@threshold", GramWith(nil, nil, g, false), GramWith(eng, nil, g, false))
	}
}
