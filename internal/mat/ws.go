package mat

import "imrdmd/internal/compute"

// This file adapts the compute.Workspace buffer pool to the matrix types:
// shape-keyed Get/Put of Dense and CDense scratch. A nil workspace always
// degrades to plain allocation, so every With-variant can be called with
// ws == nil.

// GetDense borrows a zeroed r×c matrix from ws (nil ws allocates). Return
// it with PutDense when done.
func GetDense(ws *compute.Workspace, r, c int) *Dense {
	return &Dense{R: r, C: c, Data: ws.GetF64Zero(r * c)}
}

// GetDenseRaw borrows an r×c matrix whose contents are unspecified — for
// callers that overwrite every element before reading (e.g. feeding
// dmd.ReconstructModesInto, which zeroes its output itself).
func GetDenseRaw(ws *compute.Workspace, r, c int) *Dense {
	return &Dense{R: r, C: c, Data: ws.GetF64(r * c)}
}

// PutDense returns a matrix's storage to the pool. The matrix must not be
// used afterwards. Nil m or ws is a no-op, as is a view (ColsView,
// RowsView): a view's storage belongs to its parent, so recycling it here
// would hand aliased memory to an unrelated borrower.
func PutDense(ws *compute.Workspace, m *Dense) {
	if m == nil || m.noPool {
		return
	}
	ws.PutF64(m.Data)
	m.Data = nil
}

// GetCDense borrows a zeroed r×c complex matrix from ws.
func GetCDense(ws *compute.Workspace, r, c int) *CDense {
	return &CDense{R: r, C: c, Data: ws.GetC128Zero(r * c)}
}

// PutCDense returns a complex matrix's storage to the pool.
func PutCDense(ws *compute.Workspace, m *CDense) {
	if m == nil {
		return
	}
	ws.PutC128(m.Data)
	m.Data = nil
}

// CloneWith copies m into a (tightly packed) matrix borrowed from ws.
func CloneWith(ws *compute.Workspace, m *Dense) *Dense {
	out := GetDenseRaw(ws, m.R, m.C)
	if m.packed() {
		copy(out.Data, m.Data)
		return out
	}
	for i := 0; i < m.R; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// ColSliceWith copies columns [j0, j1) of m into a matrix borrowed from ws.
func ColSliceWith(ws *compute.Workspace, m *Dense, j0, j1 int) *Dense {
	if j0 < 0 || j1 > m.C || j0 > j1 {
		panic("mat: ColSliceWith out of range")
	}
	out := GetDenseRaw(ws, m.R, j1-j0)
	for i := 0; i < m.R; i++ {
		copy(out.Row(i), m.Row(i)[j0:j1])
	}
	return out
}

// SubsampleWith copies every stride-th column (starting at 0) into a
// matrix borrowed from ws.
func SubsampleWith(ws *compute.Workspace, m *Dense, stride int) *Dense {
	if stride <= 1 {
		return CloneWith(ws, m)
	}
	n := (m.C + stride - 1) / stride
	out := GetDenseRaw(ws, m.R, n)
	for i := 0; i < m.R; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := 0, 0; j < m.C; k, j = k+1, j+stride {
			dst[k] = src[j]
		}
	}
	return out
}

// VStackWith builds [A; B] in a matrix borrowed from ws.
func VStackWith(ws *compute.Workspace, a, b *Dense) *Dense {
	if a.C != b.C {
		panic("mat: VStack col mismatch")
	}
	out := GetDenseRaw(ws, a.R+b.R, a.C)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i), a.Row(i))
	}
	for i := 0; i < b.R; i++ {
		copy(out.Row(a.R+i), b.Row(i))
	}
	return out
}

// TWith copies the transpose of m into a matrix borrowed from ws.
func TWith(ws *compute.Workspace, m *Dense) *Dense {
	t := GetDenseRaw(ws, m.C, m.R)
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

// ComplexWith converts a real matrix to a complex one borrowed from ws.
func ComplexWith(ws *compute.Workspace, a *Dense) *CDense {
	out := &CDense{R: a.R, C: a.C, Data: ws.GetC128(a.R * a.C)}
	for i := 0; i < a.R; i++ {
		orow := out.Data[i*a.C : (i+1)*a.C]
		for j, v := range a.Row(i) {
			orow[j] = complex(v, 0)
		}
	}
	return out
}
