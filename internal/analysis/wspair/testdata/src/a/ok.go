package a

import "compute"

// The negative corpus pins the idioms the real tree uses; every pattern
// here once false-positived during development and must stay silent.

func deferPut(ws *compute.Workspace, fail bool) error {
	buf := ws.GetF64(8)
	defer ws.PutF64(buf)
	buf[0] = 1
	if fail {
		return errOops
	}
	return nil
}

func deferClosure(ws *compute.Workspace) {
	a := ws.GetF64(8)
	b := ws.GetC128(4)
	defer func() {
		ws.PutF64(a)
		ws.PutC128(b)
	}()
	a[0] = real(b[0])
}

// Ownership transfer: the caller receives the pairing obligation.
func transferReturn(ws *compute.Workspace) []float64 {
	buf := ws.GetF64(8)
	buf[0] = 1
	return buf
}

// Reslice keeps the same backing array; the Put still pairs.
func reslice(ws *compute.Workspace, n int) {
	buf := ws.GetF64(16)
	buf = buf[:n]
	ws.PutF64(buf)
}

// The power-iteration swap: both buffers stay referenced and are Put
// after the loop (internal/eig/nonsymmetric.go).
func swap(ws *compute.Workspace, iters int) {
	v := ws.GetC128(4)
	w := ws.GetC128(4)
	for i := 0; i < iters; i++ {
		v, w = w, v
	}
	ws.PutC128(v)
	ws.PutC128(w)
}

// The lazy-borrow idiom: acquire and release both guarded by the
// buffer's own nil-ness (internal/mat/skinny.go).
func lazyBorrow(ws *compute.Workspace, n int) {
	var buf []float64
	for i := 0; i < n; i++ {
		if buf == nil {
			buf = ws.GetF64(64)
		}
		buf[0]++
	}
	if buf != nil {
		ws.PutF64(buf)
	}
}

type holder struct{ b []float64 }

// install stores its parameter: an escape helper, ownership moves with
// the value (as svd.Incremental.replaceFactors does with its factors).
func (h *holder) install(b []float64) {
	h.b = b
}

func transferInstall(ws *compute.Workspace, h *holder) {
	buf := ws.GetF64(8)
	buf[0] = 1
	h.install(buf)
}

// releaseVia is a put-helper: passing a held buffer to it releases it.
func releaseVia(ws *compute.Workspace, b []float64) {
	ws.PutF64(b)
}

func viaHelper(ws *compute.Workspace) {
	buf := ws.GetF64(8)
	buf[0] = 1
	releaseVia(ws, buf)
}

// Borrowing: handing the buffer to an arbitrary callee does not end the
// caller's obligation, and the Put afterwards satisfies it.
func borrow(ws *compute.Workspace) {
	buf := ws.GetF64(8)
	fill(buf)
	ws.PutF64(buf)
}

func fill(b []float64) {
	for i := range b {
		b[i] = 1
	}
}

// Storing into a field directly is an ownership transfer.
func storeField(ws *compute.Workspace, h *holder) {
	buf := ws.GetF64(8)
	h.b = buf
}
