package mat

import (
	"fmt"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

func benchDense(r, c int, seed int64) *Dense {
	return randDense(rand.New(rand.NewSource(seed)), r, c)
}

func BenchmarkMul(b *testing.B) {
	for _, n := range []int{64, 256, 512, 1024} {
		b.Run(benchSize(n), func(b *testing.B) {
			a := benchDense(n, n, 1)
			c := benchDense(n, n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = Mul(a, c)
			}
		})
	}
}

// BenchmarkMulInto times square products and the small m×k×n products
// of the streaming pipeline (residual updates, rotations, narrow
// projections, tiny cores, and window products at Theta's height on
// either side of the tall-panel class's bounds), all of which run on the
// pack-free or packed kernels.
func BenchmarkMulInto(b *testing.B) {
	run := func(name string, m, k, n int) {
		b.Run(name, func(b *testing.B) {
			a := benchDense(m, k, 1)
			c := benchDense(k, n, 2)
			dst := NewDense(m, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulInto(dst, a, c)
			}
		})
	}
	for _, n := range []int{64, 256, 512, 1024} {
		run(benchSize(n), n, n, n)
	}
	for _, s := range []struct{ m, k, n int }{
		{200, 20, 3}, {200, 3, 20}, {48, 20, 2}, {4392, 3, 1}, {8, 8, 8}, {4, 4, 4}, {2, 2, 2},
		{4392, 20, 20}, {4392, 40, 40}, {4392, 48, 40}, {4392, 64, 40}, {4392, 64, 64}, {200, 64, 64},
	} {
		run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), s.m, s.k, s.n)
	}
}

func BenchmarkMulT(b *testing.B) {
	for _, n := range []int{64, 256, 512, 1024} {
		b.Run(benchSize(n), func(b *testing.B) {
			a := benchDense(n, n, 1)
			c := benchDense(n, n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = MulT(a, c)
			}
		})
	}
}

func benchSize(n int) string {
	switch n {
	case 64:
		return "64x64"
	case 256:
		return "256x256"
	case 512:
		return "512x512"
	case 1024:
		return "1024x1024"
	}
	return "n"
}

// BenchmarkQRFactor times QRFactorOn (serial) at the workload shapes and
// at the narrow shapes either side of qrMGS2MaxCols, next to the
// two routines it chooses between, cholQR and qrMGS2.
func BenchmarkQRFactor(b *testing.B) {
	for _, c := range append([]struct{ m, n int }{{4392, 3}, {4392, 4}, {4392, 5}, {200, 4}, {200, 5}, {48, 5}}, qrShapes...) {
		a := benchDense(c.m, c.n, 3)
		ws := compute.NewWorkspace()
		for _, r := range []struct {
			name string
			qr   func() *QR
		}{
			{"qr", func() *QR { return QRFactorOn(nil, ws, a) }},
			{"cholqr", func() *QR { return cholQR(nil, ws, a) }},
			{"mgs2", func() *QR { return qrMGS2(ws, a) }},
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", c.m, c.n, r.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r.qr().Release(ws)
				}
			})
		}
	}
}

// BenchmarkGramTall times the serial tall-skinny Gram AᵀA at the window
// heights, with column counts that leave an edge row tile on the skinny
// tier (n mod 8 ≠ 0 on AVX-512, n mod 4 ≠ 0 on AVX2) next to aligned
// ones.
func BenchmarkGramTall(b *testing.B) {
	for _, c := range []struct{ m, n int }{{4392, 7}, {4392, 16}, {4392, 19}, {4392, 20}, {4392, 23}, {200, 19}, {200, 20}} {
		a := benchDense(c.m, c.n, 4)
		ws := compute.NewWorkspace()
		b.Run(fmt.Sprintf("%dx%d", c.m, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PutDense(ws, GramWith(nil, ws, a, true))
			}
		})
	}
}
