package mat

import (
	"fmt"
	"math/cmplx"
)

// CDense is a row-major dense matrix of complex128.
type CDense struct {
	R, C int
	Data []complex128
}

// NewCDense returns a zeroed r×c complex matrix.
func NewCDense(r, c int) *CDense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &CDense{R: r, C: c, Data: make([]complex128, r*c)}
}

// At returns element (i, j).
func (m *CDense) At(i, j int) complex128 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *CDense) Set(i, j int, v complex128) { m.Data[i*m.C+j] = v }

// Row returns row i aliasing the matrix storage.
func (m *CDense) Row(i int) []complex128 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *CDense) Clone() *CDense {
	d := make([]complex128, len(m.Data))
	copy(d, m.Data)
	return &CDense{R: m.R, C: m.C, Data: d}
}

// CLU is an LU factorization with partial pivoting of a square complex
// matrix: P A = L U, stored packed in LU with the permutation in Piv.
type CLU struct {
	LU   *CDense
	Piv  []int
	Sign int
}

// CLUFactorInPlace factors a in place: a's storage becomes the packed LU
// and must not be used as a matrix afterwards. A zero pivot is replaced by
// a tiny value, so an exactly singular system still solves to a finite
// (if huge) x. Its one caller, the amplitude fit, solves a semidefinite
// system plus a small diagonal jitter, so the guard is a backstop against
// a degenerate system, not a path that fit is known to take.
func CLUFactorInPlace(a *CDense) *CLU {
	if a.R != a.C {
		panic("mat: CLU requires a square matrix")
	}
	n := a.R
	lu := a
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, pmax := k, cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu.At(i, k)); a > pmax {
				p, pmax = i, a
			}
		}
		if p != k {
			ri, rk := lu.Row(p), lu.Row(k)
			for j := 0; j < n; j++ {
				ri[j], rk[j] = rk[j], ri[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		if pivot == 0 {
			pivot = complex(1e-300, 0)
			lu.Set(k, k, pivot)
		}
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			rowi := lu.Row(i)
			rowk := lu.Row(k)
			for j := k + 1; j < n; j++ {
				rowi[j] -= m * rowk[j]
			}
		}
	}
	return &CLU{LU: lu, Piv: piv, Sign: sign}
}

// Solve solves A x = b using the factorization.
func (f *CLU) Solve(b []complex128) []complex128 {
	n := f.LU.R
	if len(b) != n {
		panic("mat: CLU.Solve dimension mismatch")
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.Piv[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 0; i < n; i++ {
		row := f.LU.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.LU.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}
