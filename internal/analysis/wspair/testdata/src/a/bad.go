package a

import (
	"errors"

	"compute"
	"mat"
)

var errOops = errors.New("oops")

// The PR-1 leak class: the error return skips the Put.
func leakOnError(ws *compute.Workspace, fail bool) error {
	buf := ws.GetF64(8) // want `buf from ws.GetF64 is not returned to the pool on every path out of leakOnError`
	buf[0] = 1
	if fail {
		return errOops
	}
	ws.PutF64(buf)
	return nil
}

func leakAlways(ws *compute.Workspace) float64 {
	buf := ws.GetF64(8) // want `buf from ws.GetF64 is not returned to the pool on every path out of leakAlways`
	return buf[0]
}

func leakAdapter(ws *compute.Workspace, fail bool) error {
	m := mat.GetDense(ws, 2, 4) // want `m from mat.GetDense is not returned to the pool on every path out of leakAdapter`
	_ = m.Data[0]
	if fail {
		return errOops
	}
	mat.PutDense(ws, m)
	return nil
}

func doublePut(ws *compute.Workspace, cond bool) {
	buf := ws.GetF64(8)
	if cond {
		ws.PutF64(buf)
	}
	ws.PutF64(buf) // want `buf may already have been returned to the pool on this path`
}

func useAfterPut(ws *compute.Workspace) float64 {
	buf := ws.GetF64(8)
	ws.PutF64(buf)
	return buf[0] // want `buf is used after being returned to the pool`
}

func overwriteHeld(ws *compute.Workspace) {
	buf := ws.GetF64(8)
	buf[0] = 1
	buf = ws.GetF64(16) // want `buf is overwritten by a new Get while still held`
	ws.PutF64(buf)
}

func reassignHeld(ws *compute.Workspace, other []float64) {
	buf := ws.GetF64(8)
	buf = other // want `buf is reassigned while still held`
	_ = buf
}

func leakVarDecl(ws *compute.Workspace, fail bool) error {
	var buf = ws.GetF64Zero(8) // want `buf from ws.GetF64Zero is not returned to the pool on every path out of leakVarDecl`
	_ = buf
	if fail {
		return errOops
	}
	ws.PutF64(buf)
	return nil
}
