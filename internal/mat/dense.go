// Package mat provides the dense real and complex matrix types and the
// basic linear-algebra kernels (multiply, QR, LU, least squares, norms)
// that the SVD, eigendecomposition and DMD layers are built on.
//
// Matrices are row-major. The package is self-contained (stdlib only) and
// its hot kernels (matrix multiply) are blocked and goroutine-parallel.
// All arithmetic is float64; Dense32 exists only as the cold tier's
// storage format (tiered.go).
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense float64 matrix.
//
// The zero value is an empty matrix. Use NewDense to construct one with a
// shape.
type Dense struct {
	R, C int
	Data []float64 // row-major: element (i,j) at Data[i*RowStride()+j]

	// Stride is the row stride of Data; 0 means tightly packed
	// (stride == C), which every constructor in this package produces.
	// Strided matrices arise only from ColsView windows (stride = the
	// parent's) and GrowCols capacity padding (stride = column capacity);
	// all accessors and kernels honor it.
	Stride int

	// noPool marks matrices whose Data aliases another matrix's storage
	// (ColsView, RowsView): PutDense must not recycle it.
	noPool bool
}

// RowStride returns the distance in elements between the starts of
// consecutive rows of Data.
func (m *Dense) RowStride() int {
	if m.Stride > 0 {
		return m.Stride
	}
	return m.C
}

// packed reports whether Data is one tight R*C block, so flat loops over
// it visit exactly the matrix elements.
func (m *Dense) packed() bool {
	return (m.Stride == 0 || m.Stride == m.C) && len(m.Data) == m.R*m.C
}

// NewDense returns a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps an existing row-major slice as an r×c matrix.
// The slice is used directly, not copied.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	return &Dense{R: r, C: c, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.RowStride()+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.RowStride()+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	s := m.RowStride()
	return m.Data[i*s : i*s+m.C : i*s+m.C]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.R)
	s := m.RowStride()
	for i := 0; i < m.R; i++ {
		out[i] = m.Data[i*s+j]
	}
	return out
}

// SetCol assigns column j from v.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.R {
		panic("mat: SetCol length mismatch")
	}
	s := m.RowStride()
	for i := 0; i < m.R; i++ {
		m.Data[i*s+j] = v[i]
	}
}

// Clone returns a deep (tightly packed) copy.
func (m *Dense) Clone() *Dense {
	d := make([]float64, m.R*m.C)
	if m.packed() {
		copy(d, m.Data)
	} else {
		for i := 0; i < m.R; i++ {
			copy(d[i*m.C:(i+1)*m.C], m.Row(i))
		}
	}
	return &Dense{R: m.R, C: m.C, Data: d}
}

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.R, m.C }

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.C, m.R)
	// Blocked transpose for cache friendliness.
	const bs = 64
	ms := m.RowStride()
	for ii := 0; ii < m.R; ii += bs {
		iMax := min(ii+bs, m.R)
		for jj := 0; jj < m.C; jj += bs {
			jMax := min(jj+bs, m.C)
			for i := ii; i < iMax; i++ {
				row := m.Data[i*ms:]
				for j := jj; j < jMax; j++ {
					t.Data[j*m.R+i] = row[j]
				}
			}
		}
	}
	return t
}

// ColSlice returns a copy of columns [j0, j1).
func (m *Dense) ColSlice(j0, j1 int) *Dense {
	if j0 < 0 || j1 > m.C || j0 > j1 {
		panic(fmt.Sprintf("mat: ColSlice [%d,%d) out of range for %d cols", j0, j1, m.C))
	}
	out := NewDense(m.R, j1-j0)
	for i := 0; i < m.R; i++ {
		copy(out.Row(i), m.Row(i)[j0:j1])
	}
	return out
}

// RowSlice returns a copy of rows [i0, i1).
func (m *Dense) RowSlice(i0, i1 int) *Dense {
	if i0 < 0 || i1 > m.R || i0 > i1 {
		panic(fmt.Sprintf("mat: RowSlice [%d,%d) out of range for %d rows", i0, i1, m.R))
	}
	out := NewDense(i1-i0, m.C)
	for i := i0; i < i1; i++ {
		copy(out.Row(i-i0), m.Row(i))
	}
	return out
}

// Subsample returns a copy with every stride-th column starting at column 0.
func (m *Dense) Subsample(stride int) *Dense {
	if stride <= 1 {
		return m.Clone()
	}
	n := (m.C + stride - 1) / stride
	out := NewDense(m.R, n)
	for i := 0; i < m.R; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := 0, 0; j < m.C; k, j = k+1, j+stride {
			dst[k] = src[j]
		}
	}
	return out
}

// HStack returns [A B] (columns of b appended to a). Row counts must match.
func HStack(a, b *Dense) *Dense {
	if a.R != b.R {
		panic("mat: HStack row mismatch")
	}
	out := NewDense(a.R, a.C+b.C)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i)[:a.C], a.Row(i))
		copy(out.Row(i)[a.C:], b.Row(i))
	}
	return out
}

// VStack returns [A; B] (rows of b appended to a). Column counts must match.
func VStack(a, b *Dense) *Dense {
	if a.C != b.C {
		panic("mat: VStack col mismatch")
	}
	out := NewDense(a.R+b.R, a.C)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i), a.Row(i))
	}
	for i := 0; i < b.R; i++ {
		copy(out.Row(a.R+i), b.Row(i))
	}
	return out
}

// Eye returns the n×n identity.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// DiagOf returns a square matrix with v on the diagonal.
func DiagOf(v []float64) *Dense {
	n := len(v)
	m := NewDense(n, n)
	for i, x := range v {
		m.Data[i*n+i] = x
	}
	return m
}

// Add returns a + b element-wise.
func Add(a, b *Dense) *Dense {
	checkSameShape("Add", a, b)
	out := NewDense(a.R, a.C)
	for i := 0; i < a.R; i++ {
		orow, arow, brow := out.Row(i), a.Row(i), b.Row(i)
		for j := range orow {
			orow[j] = arow[j] + brow[j]
		}
	}
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Dense) *Dense {
	checkSameShape("Sub", a, b)
	out := NewDense(a.R, a.C)
	for i := 0; i < a.R; i++ {
		orow, arow, brow := out.Row(i), a.Row(i), b.Row(i)
		for j := range orow {
			orow[j] = arow[j] - brow[j]
		}
	}
	return out
}

// Scale returns s*a.
func Scale(s float64, a *Dense) *Dense {
	out := NewDense(a.R, a.C)
	for i := 0; i < a.R; i++ {
		orow, arow := out.Row(i), a.Row(i)
		for j := range orow {
			orow[j] = s * arow[j]
		}
	}
	return out
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 {
	var s float64
	if m.packed() {
		for _, v := range m.Data {
			s += v * v
		}
		return math.Sqrt(s)
	}
	for i := 0; i < m.R; i++ {
		for _, v := range m.Row(i) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	var s float64
	for i := 0; i < m.R; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(v); a > s {
				s = a
			}
		}
	}
	return s
}

// HasNaN reports whether any entry is NaN or ±Inf.
func (m *Dense) HasNaN() bool {
	for i := 0; i < m.R; i++ {
		for _, v := range m.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}

func checkSameShape(op string, a, b *Dense) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("mat: %s shape mismatch %d×%d vs %d×%d", op, a.R, a.C, b.R, b.C))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
