// Package telemetry synthesizes the environment-log fidelity level: dense
// sensor time series with the multiscale structure the paper's pipeline is
// designed to decompose. The real Theta/Polaris logs are facility-private,
// so this generator stands in for them (see DESIGN.md §1): what I-mrDMD
// consumes is a P×T matrix whose relevant properties are its timescale
// mixture — slow facility drift, diurnal cycles, per-job thermal plateaus,
// cooling-loop oscillations, sensor noise — plus localized anomalies with
// known ground truth. All of those are modelled explicitly and seeded.
package telemetry

import (
	"math"
	"math/rand"

	"imrdmd/internal/joblog"
	"imrdmd/internal/mat"
)

// Profile is a sensor-population description.
type Profile struct {
	Name string
	// SampleInterval is Δt between columns, in seconds. Theta environment
	// logs arrive every 15–30 s (we use 20); Polaris GPU metrics every 3 s.
	SampleInterval float64

	// BaseTemp is the fleet-average idle temperature (°C).
	BaseTemp float64
	// RackGradientTemp is the top-to-bottom spread attributable to rack
	// position in the cooling loop.
	RackGradientTemp float64
	// DiurnalAmp and DiurnalPeriod describe the facility day cycle.
	DiurnalAmp    float64
	DiurnalPeriod float64
	// JobHeat is the temperature rise of a busy node at steady state, and
	// ThermalTau the first-order time constant of the rise/decay.
	JobHeat    float64
	ThermalTau float64
	// CoolingAmp/CoolingPeriod model the cooling-loop oscillation (fans,
	// pumps) — the mid-frequency band in the mrDMD spectrum.
	CoolingAmp    float64
	CoolingPeriod float64
	// FastAmp/FastPeriod add a fast jitter band (regulator/fan hunting);
	// the GPU profile has much more energy here, which is why the paper
	// observes more extracted modes on GPU metrics.
	FastAmp    float64
	FastPeriod float64
	// NoiseStd is white sensor noise.
	NoiseStd float64
}

// ThetaEnv is the Cray XC40 environment-log profile (temperatures).
func ThetaEnv() Profile {
	return Profile{
		Name:             "theta-env",
		SampleInterval:   20,
		BaseTemp:         46,
		RackGradientTemp: 6,
		DiurnalAmp:       3,
		DiurnalPeriod:    86400,
		JobHeat:          18,
		ThermalTau:       600,
		CoolingAmp:       1.2,
		CoolingPeriod:    900,
		FastAmp:          0.3,
		FastPeriod:       60,
		NoiseStd:         0.6,
	}
}

// PolarisGPU is the HPE Apollo GPU-temperature profile: hotter, faster
// dynamics, stronger fast band.
func PolarisGPU() Profile {
	return Profile{
		Name:             "polaris-gpu",
		SampleInterval:   3,
		BaseTemp:         38,
		RackGradientTemp: 4,
		DiurnalAmp:       2,
		DiurnalPeriod:    86400,
		JobHeat:          32,
		ThermalTau:       120,
		CoolingAmp:       2.0,
		CoolingPeriod:    180,
		FastAmp:          1.0,
		FastPeriod:       12,
		NoiseStd:         1.0,
	}
}

// AnomalyKind tags an injected fault scenario.
type AnomalyKind int

// Anomaly kinds used by the case studies.
const (
	// HotNode runs persistently hotter than its load explains (failing
	// fan / thermal paste): positive z-scores.
	HotNode AnomalyKind = iota
	// StalledNode stops doing work while allocated (hung job): the node
	// cools toward ambient — negative z-scores, the "low utilization"
	// signature of case study 1.
	StalledNode
	// MemErrNode reports correctable memory errors without a thermal
	// signature (case study 1's red-outlined nodes whose z-scores sit in
	// the negative-to-baseline range).
	MemErrNode
)

// Anomaly injects a fault on one node over a time interval (seconds).
type Anomaly struct {
	Kind      AnomalyKind
	Node      int
	Start     float64
	End       float64
	Magnitude float64 // °C for HotNode; unused otherwise
}

// Generator produces deterministic sensor matrices.
type Generator struct {
	Profile   Profile
	NumNodes  int
	Seed      int64
	Schedule  *joblog.Schedule // optional: thermal coupling to jobs
	Anomalies []Anomaly

	// per-node randomized traits, built lazily
	traits []nodeTraits
}

type nodeTraits struct {
	baseOffset   float64 // per-node calibration offset
	coolingPhase float64
	fastPhase    float64
	gradient     float64 // rack-position share of the gradient
	noiseSeed    int64
}

// NewGenerator builds a generator for numNodes sensors.
func NewGenerator(p Profile, numNodes int, seed int64) *Generator {
	return &Generator{Profile: p, NumNodes: numNodes, Seed: seed}
}

func (g *Generator) buildTraits() {
	if g.traits != nil {
		return
	}
	rng := rand.New(rand.NewSource(g.Seed))
	g.traits = make([]nodeTraits, g.NumNodes)
	for i := range g.traits {
		g.traits[i] = nodeTraits{
			baseOffset:   rng.NormFloat64() * 1.0,
			coolingPhase: rng.Float64() * 2 * math.Pi,
			fastPhase:    rng.Float64() * 2 * math.Pi,
			gradient:     float64(i%64) / 64, // position within the rack column
			noiseSeed:    rng.Int63(),
		}
	}
}

// Matrix generates columns [t0, t0+T) (time-step indices) for all nodes:
// a NumNodes×T matrix. Successive calls with consecutive ranges produce
// exactly the same values as one big call — the property the streaming
// harness relies on.
func (g *Generator) Matrix(t0, t1 int) *mat.Dense {
	g.buildTraits()
	p := g.NumNodes
	tcols := t1 - t0
	out := mat.NewDense(p, tcols)
	for i := 0; i < p; i++ {
		row := out.Row(i)
		tr := &g.traits[i]
		// Per-node noise stream positioned deterministically: one RNG per
		// node seeded by trait, skipped to t0 via a hash-style generator
		// (cheap: use a counter-based hash instead of sequential skip).
		for k := 0; k < tcols; k++ {
			step := t0 + k
			row[k] = g.value(i, tr, step)
		}
	}
	return out
}

// value computes sensor i at time-step index `step`.
func (g *Generator) value(i int, tr *nodeTraits, step int) float64 {
	pr := &g.Profile
	t := float64(step) * pr.SampleInterval
	v := pr.BaseTemp + tr.baseOffset + pr.RackGradientTemp*tr.gradient
	v += pr.DiurnalAmp * math.Sin(2*math.Pi*t/pr.DiurnalPeriod)
	v += pr.CoolingAmp * math.Sin(2*math.Pi*t/pr.CoolingPeriod+tr.coolingPhase)
	v += pr.FastAmp * math.Sin(2*math.Pi*t/pr.FastPeriod+tr.fastPhase)

	// Thermal load: first-order response to the job schedule. The exact
	// exponential needs history; a good memoryless surrogate is the
	// smoothed occupancy over the last ThermalTau seconds, sampled at a
	// few points (deterministic, and continuous at job boundaries).
	load := g.loadAt(i, t)
	stalled, hot, hotMag := g.anomalyAt(i, t)
	if stalled {
		load = 0
	}
	v += pr.JobHeat * load
	if hot {
		v += hotMag
	}
	v += pr.NoiseStd * hashNoise(tr.noiseSeed, step)
	return v
}

// loadAt approximates the thermally filtered occupancy of node i at time
// t: the mean busy-fraction over the trailing ThermalTau window, sampled
// at 4 points.
func (g *Generator) loadAt(i int, t float64) float64 {
	if g.Schedule == nil {
		return 0
	}
	tau := g.Profile.ThermalTau
	const samples = 4
	var acc float64
	for s := 0; s < samples; s++ {
		ts := t - tau*float64(s)/samples
		if ts < 0 {
			continue
		}
		if _, busy := g.Schedule.BusyAt(i, ts); busy {
			acc++
		}
	}
	return acc / samples
}

// anomalyAt reports the active anomaly effects for node i at time t.
func (g *Generator) anomalyAt(i int, t float64) (stalled, hot bool, hotMag float64) {
	for _, a := range g.Anomalies {
		if a.Node != i || t < a.Start || t >= a.End {
			continue
		}
		switch a.Kind {
		case StalledNode:
			stalled = true
		case HotNode:
			hot = true
			hotMag += a.Magnitude
		case MemErrNode:
			// no thermal effect by design
		}
	}
	return stalled, hot, hotMag
}

// hashNoise returns a deterministic standard-normal-ish variate for
// (seed, step) without sequential RNG state, so any column range can be
// generated independently. It uses SplitMix64 bit mixing and a
// sum-of-uniforms shaping (Irwin–Hall with n=4, rescaled), which is
// within a few percent of Gaussian for this purpose.
func hashNoise(seed int64, step int) float64 {
	x := uint64(seed) ^ (uint64(step)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	var sum float64
	for j := 0; j < 4; j++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		sum += float64(x>>11) / float64(1<<53)
	}
	// Irwin–Hall(4): mean 2, variance 4/12 → standardize.
	return (sum - 2) / math.Sqrt(4.0/12.0)
}
