package mat

import (
	"fmt"
	"math"
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

// Complex converts a real matrix to complex.
func Complex(a *Dense) *CDense {
	out := NewCDense(a.R, a.C)
	for i, v := range a.Data {
		out.Data[i] = complex(v, 0)
	}
	return out
}

// CMulVec returns a*x.
func CMulVec(a *CDense, x []complex128) []complex128 {
	if len(x) != a.C {
		panic("mat: CMulVec dimension mismatch")
	}
	out := make([]complex128, a.R)
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// CLU is an LU factorization with partial pivoting of a square complex
// matrix: P A = L U, stored packed in LU with the permutation in Piv.
type CLU struct {
	LU   *CDense
	Piv  []int
	Sign int
}

// CLUFactorInPlace factors a in place: a's storage becomes the packed LU
// and must not be used as a matrix afterwards. Singular pivots are
// replaced by a tiny value so inverse iteration (which deliberately
// shifts close to an eigenvalue) stays finite.
func CLUFactorInPlace(a *CDense) *CLU {
	f := &CLU{}
	f.FactorInPlace(a)
	return f
}

// FactorInPlace (re)factors a in place into f, reusing f's pivot storage
// when capacities allow. Repeated factorizations of equal-size systems —
// inverse iteration's per-eigenvalue solves — allocate nothing.
func (f *CLU) FactorInPlace(a *CDense) {
	if a.R != a.C {
		panic("mat: CLU requires a square matrix")
	}
	n := a.R
	lu := a
	if cap(f.Piv) >= n {
		f.Piv = f.Piv[:n]
	} else {
		f.Piv = make([]int, n)
	}
	piv := f.Piv
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
	f.LU, f.Sign = lu, sign
}

// Solve solves A x = b using the factorization.
func (f *CLU) Solve(b []complex128) []complex128 {
	return f.SolveInto(make([]complex128, f.LU.R), b)
}

// SolveInto solves A x = b into the provided x (len n, distinct from b)
// and returns it, allocating nothing.
func (f *CLU) SolveInto(x, b []complex128) []complex128 {
	n := f.LU.R
	if len(b) != n || len(x) != n {
		panic("mat: CLU.Solve dimension mismatch")
	}
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

// CLstSq solves min ‖Ax − b‖₂ for complex A (rows ≥ cols) by modified
// Gram–Schmidt QR with re-orthogonalization.
func CLstSq(a *CDense, b []complex128) []complex128 {
	m, n := a.R, a.C
	if m < n {
		panic("mat: CLstSq requires rows >= cols")
	}
	if len(b) != m {
		panic("mat: CLstSq dimension mismatch")
	}
	q := a.Clone()
	r := NewCDense(n, n)
	for j := 0; j < n; j++ {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				var dot complex128
				for k := 0; k < m; k++ {
					row := q.Data[k*n:]
					dot += cmplx.Conj(row[i]) * row[j]
				}
				r.Data[i*n+j] += dot
				for k := 0; k < m; k++ {
					row := q.Data[k*n:]
					row[j] -= dot * row[i]
				}
			}
		}
		var nrm float64
		for k := 0; k < m; k++ {
			v := q.Data[k*n+j]
			nrm += real(v)*real(v) + imag(v)*imag(v)
		}
		nrm = math.Sqrt(nrm)
		r.Data[j*n+j] = complex(nrm, 0)
		if nrm > 0 {
			inv := complex(1/nrm, 0)
			for k := 0; k < m; k++ {
				q.Data[k*n+j] *= inv
			}
		}
	}
	// qtb = Qᴴ b
	qtb := make([]complex128, n)
	for j := 0; j < n; j++ {
		var s complex128
		for i := 0; i < m; i++ {
			s += cmplx.Conj(q.Data[i*n+j]) * b[i]
		}
		qtb[j] = s
	}
	// Back substitution on R.
	x := make([]complex128, n)
	tol := 1e-13 * maxAbsC(r)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		row := r.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if cmplx.Abs(row[i]) <= tol {
			x[i] = 0
			continue
		}
		x[i] = s / row[i]
	}
	return x
}

func maxAbsC(m *CDense) float64 {
	var s float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > s {
			s = a
		}
	}
	return s
}
