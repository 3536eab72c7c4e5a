// Package mat stubs the repo's matrix pool adapters: Get*/Put* functions
// that take a *compute.Workspace, which the analyzer treats like the
// Workspace methods.
package mat

import "compute"

type Dense struct{ Data []float64 }

func GetDense(ws *compute.Workspace, r, c int) *Dense { return &Dense{Data: ws.GetF64(r * c)} }
func PutDense(ws *compute.Workspace, m *Dense)        { ws.PutF64(m.Data) }
