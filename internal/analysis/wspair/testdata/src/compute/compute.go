// Package compute stubs the repo's workspace pool surface: the analyzer
// matches by package name + type name, so this corpus-local shape stands
// in for imrdmd/internal/compute.
package compute

type Workspace struct{ f64 [][]float64 }

func (ws *Workspace) GetF64(n int) []float64     { return make([]float64, n) }
func (ws *Workspace) GetF64Zero(n int) []float64 { return make([]float64, n) }
func (ws *Workspace) PutF64(b []float64)         { ws.f64 = append(ws.f64, b) }

func (ws *Workspace) GetC128(n int) []complex128 { return make([]complex128, n) }
func (ws *Workspace) PutC128(b []complex128)     {}
