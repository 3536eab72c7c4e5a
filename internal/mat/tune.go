package mat

import (
	"os"
	"strings"
	"time"

	"imrdmd/internal/compute"
)

// This file picks the GEMM kernel tier and cache-blocking parameters at
// boot. Three tiers exist:
//
//	tierGeneric — portable Go micro-kernels (4×4)
//	tierAVX2    — 256-bit asm micro-kernels (4×4)
//	tierAVX512  — 512-bit asm micro-kernels (8×16)
//
// and each tier gets its own blockParams: the micro-tile geometry MR×NR
// plus the Goto/BLIS cache blocks KC/MC/NC.
// Geometry follows the tier (a 512-bit kernel wants an 8-row strip);
// blocking follows the machine, derived once at boot from the probed
// cache sizes (CPUID on amd64, a bounded timed sweep elsewhere or when
// CPUID is masked).
//
// KC is special: it splits the k-reduction into register-accumulated
// chunks, so changing it changes last-bit rounding. It is therefore part
// of the numeric contract and is derived from L1 only for the AVX-512
// tier, which has no prior output to preserve; the AVX2 and generic
// tiers keep KC=256 so their results stay bit-identical to every
// previous release. MC and NC only partition independent outputs — any
// value yields bit-identical results — so they float freely on every
// tier.
//
// Two environment knobs pin the configuration for reproducibility:
//
//	IMRDMD_GEMM_KERNEL = generic | avx2 | avx512 | auto
//	    caps the dispatch tier (never raises it above the hardware);
//	    "generic" forces the portable Go kernels and Go pack routines.
//	IMRDMD_GEMM_TUNE = off
//	    skips cache probing and pins KC/MC/NC at the historical
//	    256/128/512 for every tier (micro-tile geometry still follows
//	    the tier).
//	IMRDMD_GEMM_SKINNY = off
//	    disables the pack-free small/skinny-shape dispatch tier
//	    (skinny.go), forcing every above-threshold multiply through the
//	    packed path. The skinny kernels replay the packed path's exact
//	    per-element accumulation order (same KC chunking, same FMA or
//	    mul-add shape per tier), so flipping this knob is bit-neutral —
//	    the escape hatch exists for triage, not numerics.

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

// cacheInfo is the probed per-core cache hierarchy in bytes; zero means
// unknown (deriveParams substitutes conservative defaults).
type cacheInfo struct {
	l1d, l2, l3 int
}

// Package-level kernel configuration, resolved once in dependency order:
// tier first (hardware capped by IMRDMD_GEMM_KERNEL), then the cache
// probe (skipped under IMRDMD_GEMM_TUNE=off), then the blocking.
var (
	gemmTuned    = os.Getenv("IMRDMD_GEMM_TUNE") != "off"
	gemmSkinny   = os.Getenv("IMRDMD_GEMM_SKINNY") != "off"
	gemmTier     = resolveTier(detectKernelTier(), os.Getenv("IMRDMD_GEMM_KERNEL"))
	kernelCaches = probeCaches(gemmTuned)
	bp64         = deriveParams(gemmTier, kernelCaches, gemmTuned, compute.Default().Workers())
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

// probeCaches returns the cache hierarchy: CPUID enumeration where the
// architecture provides it, otherwise (or when CPUID is masked by a
// hypervisor) a bounded timed sweep. Untuned runs skip probing entirely.
func probeCaches(tuned bool) cacheInfo {
	if !tuned {
		return cacheInfo{}
	}
	ci := cpuidCaches()
	if ci.l1d == 0 {
		ci = sweepCaches()
	}
	return ci
}

// deriveParams computes the blocking for one tier.
// Derivation targets (the standard Goto/BLIS residency argument):
//
//	KC·NR·esize ≈ L1d/2     one packed B strip stays L1-resident across a
//	                        panel row of tiles (AVX-512 tier only; see the
//	                        numeric-contract note atop this file)
//	MC·KC·esize ≈ L2/3      one packed A panel stays L2-resident across
//	                        the whole NC loop, leaving room for the B
//	                        strip stream and dst traffic
//	NC·KC·esize ≈ L3/w/8    bounds the shared B panel by this worker's
//	                        *share* of the L3 — w concurrent engine lanes
//	                        each stream their own A panels against it, so
//	                        sizing against the full cache overcommits it
//	                        w-fold; larger NC amortizes A packing over
//	                        more columns, capped so pooled pack buffers
//	                        stay moderate
//
// all rounded down to their tile multiple and clamped to sane ranges.
// workers is the engine fan-out width (engine.Workers()); NC is the only
// output that depends on it — MC and KC are per-lane L2/L1 quantities and
// the caches below L3 are private per core.
func deriveParams(tier kernelTier, caches cacheInfo, tuned bool, workers int) blockParams {
	const esize = 8 // bytes per float64 element
	p := blockParams{mr: 4, nr: 4, kc: 256, mc: 128, nc: 512}
	if tier == tierAVX512 {
		// 8×16: two 512-bit vectors of doubles per row — the doubled
		// width halves the broadcast-load pressure per FMA, which is what
		// the 8-wide tile is bound by.
		p.mr, p.nr = 8, 16
	}
	if !tuned {
		return p
	}
	l1, l2, l3 := caches.l1d, caches.l2, caches.l3
	if l1 == 0 {
		l1 = 32 << 10
	}
	if l2 == 0 {
		l2 = 1 << 20
	}
	if l3 == 0 {
		l3 = 8 << 20
	}
	if tier == tierAVX512 {
		p.kc = clampMult(l1/2/(p.nr*esize), 8, 128, 1024)
	}
	p.mc = clampMult(l2/3/(p.kc*esize), p.mr, 4*p.mr, 512)
	if workers < 1 {
		workers = 1
	}
	p.nc = clampMult(l3/workers/8/(p.kc*esize), p.nr, 4*p.nr, 1024)
	return p
}

// clampMult rounds v down to a multiple of mult and clamps it to
// [lo, hi] (lo and hi must themselves be multiples of mult).
func clampMult(v, mult, lo, hi int) int {
	v = v / mult * mult
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sweepSink keeps the sweep's loads observable so the compiler cannot
// delete them.
var sweepSink byte

// sweepCaches estimates L1d and L2 by timing line-strided passes over
// growing working sets and finding where the per-line cost jumps. It is
// the fallback for hosts where CPUID reports nothing (non-amd64 builds,
// masked hypervisor leaves); the whole sweep touches ≤2 MiB and is
// bounded to a few hundred microseconds of boot time. L3 is left
// unknown — deriveParams substitutes a conservative default — because
// sizing it by timing needs working sets too large for a boot probe.
func sweepCaches() cacheInfo {
	const line = 64
	sizes := []int{16 << 10, 32 << 10, 48 << 10, 64 << 10, 96 << 10,
		128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}
	buf := make([]byte, sizes[len(sizes)-1])
	for i := range buf {
		buf[i] = byte(i)
	}
	perLine := make([]float64, len(sizes))
	var sink byte
	for i, sz := range sizes {
		lines := sz / line
		reps := (1 << 15) / lines
		if reps < 1 {
			reps = 1
		}
		// One warm pass off the clock, then the timed repetitions.
		for off := 0; off < sz; off += line {
			sink += buf[off]
		}
		//imrdmd:allow detorder -- boot-time cache-size probe; runs once before any batch, never on the kernel path
		start := time.Now()
		for r := 0; r < reps; r++ {
			for off := 0; off < sz; off += line {
				sink += buf[off]
			}
		}
		//imrdmd:allow detorder -- boot-time cache-size probe; runs once before any batch, never on the kernel path
		perLine[i] = float64(time.Since(start)) / float64(reps*lines)
	}
	sweepSink = sink

	// A size still inside a cache level costs within ~1.5× of the level's
	// fastest size; the first size past a knee jumps above it.
	var ci cacheInfo
	base := perLine[0]
	i := 0
	for ; i < len(sizes) && perLine[i] <= 1.5*base; i++ {
		ci.l1d = sizes[i]
	}
	if i < len(sizes) {
		base = perLine[i]
		for ; i < len(sizes) && perLine[i] <= 1.5*base; i++ {
			ci.l2 = sizes[i]
		}
	}
	// A sweep that never found a knee (uniform timings: tiny machine or
	// noisy clock) reports nothing rather than claiming a 2 MiB L1.
	if ci.l1d >= sizes[len(sizes)-1] {
		return cacheInfo{}
	}
	return ci
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
	// Tuned is false when IMRDMD_GEMM_TUNE=off pinned the historical
	// blocking constants instead of deriving them from the cache probe.
	Tuned bool
	// Skinny is false when IMRDMD_GEMM_SKINNY=off disabled the pack-free
	// small/skinny-shape dispatch tier.
	Skinny bool
	// L1D, L2, L3 are the probed cache sizes in bytes (0 = unknown or
	// probing skipped).
	L1D, L2, L3 int
	// F64 is the float64 tile geometry and blocking.
	F64 KernelParams
}

// Kernel reports the boot-time kernel configuration.
func Kernel() KernelInfo {
	return KernelInfo{
		Tier:   gemmTier.String(),
		Tuned:  gemmTuned,
		Skinny: gemmSkinny,
		L1D:    kernelCaches.l1d,
		L2:     kernelCaches.l2,
		L3:     kernelCaches.l3,
		F64:    KernelParams{MR: bp64.mr, NR: bp64.nr, KC: bp64.kc, MC: bp64.mc, NC: bp64.nc},
	}
}
