// Package imrdmd is an incremental multiresolution dynamic mode
// decomposition (I-mrDMD) toolkit for assessing multifidelity HPC
// monitoring data, reproducing Shilpika et al., "An Incremental
// Multi-Level, Multi-Scale Approach to Assessment of Multifidelity HPC
// Systems" (SC 2024).
//
// The package decomposes streaming sensor matrices (P sensors × T time
// steps) into spatiotemporal modes at multiple timescales, updates the
// decomposition incrementally as new time steps arrive, isolates modes by
// frequency through the mrDMD power spectrum, and scores each sensor's
// deviation from a chosen baseline as z-scores ready for rack-layout
// visualization.
//
// # Quick start
//
//	a, err := imrdmd.New(imrdmd.Options{DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true})
//	if err != nil { ... }                                   // invalid options are rejected
//	if err := a.InitialFit(series); err != nil { ... }      // first window
//	stats, err := a.PartialFit(more)                        // streamed updates
//	recon := a.Reconstruction()                             // denoised data
//	spec  := a.Spectrum()                                   // (freq, power, amp) points
//	base  := imrdmd.BaselineByMeanRange(series, 46, 57)     // baseline sensors
//	z, _  := a.ZScores(base, 0, math.Inf(1))                // per-sensor z-scores
//
// Every numeric stage runs in float64. Options.ColdHorizon can store old
// history as float32 to halve its resident bytes; that is a storage
// format, never an arithmetic tier (see DESIGN.md §10).
//
// # Snapshot and restore
//
// Analyzer.Snapshot serializes the complete incremental state as a
// versioned binary stream and Restore reconstructs it; the restored
// analyzer continues PartialFit streams bit-compatibly with the
// uninterrupted one. Restore reads the one current format (version 2);
// a stream of any other version, or holding a retired row-sharded or
// mixed-precision payload, fails with an error. This is what lets a
// long-running deployment survive restarts or migrate a stream between
// hosts:
//
//	var buf bytes.Buffer
//	if err := a.Snapshot(&buf); err != nil { ... }
//	b, err := imrdmd.Restore(&buf)          // picks up exactly where a left off
//
// Restore reads its source a 64 KiB block at a time and may read up to
// one block past the snapshot's trailer, so the reader it gets should
// hold that one snapshot and nothing the caller still needs after it.
//
// # Serving streams
//
// cmd/imrdmd-serve wraps the analyzer in a long-running HTTP service:
// per-tenant analyzers (each with its own Options) behind chunked
// CSV/JSON ingest,
// query endpoints for modes/spectrum/reconstruction error, and
// snapshot/restore endpoints backed by the same codec, with all
// tenants' kernels bounded by one shared worker pool. See DESIGN.md §8.
//
// See the examples directory for complete monitoring scenarios and
// cmd/paperbench for the harness that regenerates every table and figure
// of the paper.
package imrdmd
