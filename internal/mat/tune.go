package mat

import (
	"os"
	"strings"
)

// This file picks the GEMM kernel tier at boot. Three tiers exist:
//
//	tierGeneric — portable Go micro-kernels (4×4)
//	tierAVX2    — 256-bit asm micro-kernels (4×4)
//	tierAVX512  — 512-bit asm micro-kernels (8×16)
//
// The micro-tile geometry MR×NR follows the tier (a 512-bit kernel wants
// an 8-row strip). The Goto/BLIS cache blocks are one constant on every
// tier and every host: KC/MC/NC = 256/128/512.
//
// KC is part of the numeric contract: it splits the k-reduction into
// register-accumulated chunks, so it sets the last-bit rounding of every
// long product. At equal KC the AVX2 and AVX-512 asm kernels agree bit
// for bit, so fixing KC makes a snapshot taken on an AVX-512 host
// continue bit-identically on an AVX2 host and back. MC and NC only
// partition independent outputs; a host-derived value measured no faster
// on any benchmark workload (DESIGN §5).
//
// One environment knob caps the tier:
//
//	IMRDMD_GEMM_KERNEL = generic | avx2 | avx512 | auto
//	    caps the dispatch tier (never raises it above the hardware);
//	    "generic" forces the portable Go kernels and Go pack routines.

// kernelTier identifies which micro-kernel family gemmKernel dispatches
// to. The zero value is the portable tier, so a GEMM that somehow runs
// before package init (another package's var initializer) is safe.
type kernelTier int

const (
	tierGeneric kernelTier = iota
	tierAVX2
	tierAVX512
)

func (t kernelTier) String() string {
	switch t {
	case tierAVX512:
		return "avx512"
	case tierAVX2:
		return "avx2"
	default:
		return "generic"
	}
}

// blockParams is the kernel configuration: micro-tile geometry (mr rows ×
// nr columns) and the cache-blocking sizes consulted by gemmView.
type blockParams struct {
	mr, nr     int
	kc, mc, nc int
}

// Package-level kernel configuration: the hardware tier capped by
// IMRDMD_GEMM_KERNEL, and that tier's parameters.
var (
	gemmTier = resolveTier(detectKernelTier(), os.Getenv("IMRDMD_GEMM_KERNEL"))
	bp64     = tierParams(gemmTier)
)

// resolveTier caps the detected tier with the IMRDMD_GEMM_KERNEL knob.
// The env can lower the tier (forcing fallback paths into CI on any
// host) but never raise it above what the hardware supports.
func resolveTier(detected kernelTier, env string) kernelTier {
	switch strings.ToLower(strings.TrimSpace(env)) {
	case "generic", "off":
		return tierGeneric
	case "avx2":
		if detected > tierAVX2 {
			return tierAVX2
		}
		return detected
	default: // "", "auto", "avx512", unknown values
		return detected
	}
}

// tierParams returns the parameters for one tier: the fixed blocking
// with the tier's micro-tile. On the AVX-512 tier the tile is 8×16, two
// 512-bit vectors of doubles per row; the doubled width halves the
// broadcast-load pressure per FMA, which is what the 8-wide tile is
// bound by. MC and NC are multiples of every tier's MR and NR.
func tierParams(tier kernelTier) blockParams {
	p := blockParams{mr: 4, nr: 4, kc: 256, mc: 128, nc: 512}
	if tier == tierAVX512 {
		p.mr, p.nr = 8, 16
	}
	return p
}

// KernelParams is the public mirror of the GEMM blocking, as reported by
// Kernel (and recorded in the env record of every cmd/imrdmd-bench run,
// cmd/imrdmd-bench/env.go, so results are comparable across hosts).
type KernelParams struct {
	MR, NR, KC, MC, NC int
}

// KernelInfo describes the GEMM dispatch configuration chosen at boot.
type KernelInfo struct {
	// Tier is the micro-kernel family: "avx512", "avx2" or "generic".
	Tier string
	// Tuned is always false: the blocking is fixed, never derived from
	// the host. Kept because the benchmark's env record reads it.
	Tuned bool
	// Skinny is always true: the pack-free small/skinny-shape tier is
	// always on. Kept because the benchmark's env record reads it.
	Skinny bool
	// F64 is the float64 tile geometry and blocking.
	F64 KernelParams
}

// Kernel reports the boot-time kernel configuration.
func Kernel() KernelInfo {
	return KernelInfo{
		Tier:   gemmTier.String(),
		Skinny: true,
		F64:    KernelParams{MR: bp64.mr, NR: bp64.nr, KC: bp64.kc, MC: bp64.mc, NC: bp64.nc},
	}
}
