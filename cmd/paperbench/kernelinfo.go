package main

import (
	"fmt"
	"runtime/debug"

	"imrdmd/internal/mat"
)

// printKernelInfo dumps the boot-time GEMM configuration (the -kernel-info
// flag; CI's bench smoke prints it so every log records which tier ran).
func printKernelInfo() {
	ki := mat.Kernel()
	fmt.Printf("gemm kernel: tier=%s goamd64=%q\n", ki.Tier, goamd64Setting())
	fmt.Printf("f64: MR=%d NR=%d KC=%d MC=%d NC=%d\n", ki.F64.MR, ki.F64.NR, ki.F64.KC, ki.F64.MC, ki.F64.NC)
}

// goamd64Setting reports the GOAMD64 microarchitecture level the binary
// was compiled for (from the embedded build info; empty if unrecorded).
func goamd64Setting() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return ""
}
