// Package baseline implements the paper's baseline / z-score analysis
// (§III-A2, following Brunton et al. [1]): pick a set of measurements that
// represent expected system behaviour, then express every measurement's
// mode magnitude as a z-score of its change from the baseline population.
// The rack views (Figs. 4 and 6) color nodes by exactly these z-scores.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"imrdmd/internal/mat"
)

// SelectByMeanRange returns the row indices of data whose time-mean lies
// in [lo, hi] — the paper's rule for choosing baseline readings (e.g.
// 46 °C–57 °C in case study 1).
func SelectByMeanRange(data *mat.Dense, lo, hi float64) []int {
	var out []int
	for i := 0; i < data.R; i++ {
		m := mean(data.Row(i))
		if m >= lo && m <= hi {
			out = append(out, i)
		}
	}
	return out
}

// ErrNoBaseline is returned when the baseline set is empty or degenerate.
var ErrNoBaseline = errors.New("baseline: empty or degenerate baseline set")

// ZScores standardizes each measurement's magnitude against the baseline
// population: z[i] = (mag[i] − μ_B) / σ_B where μ_B, σ_B are the mean and
// standard deviation of mag over the baseline indices. A baseline index
// outside mag is an error naming it.
func ZScores(mag []float64, baselineIdx []int) ([]float64, error) {
	if len(baselineIdx) < 2 {
		return nil, ErrNoBaseline
	}
	for _, i := range baselineIdx {
		if i < 0 || i >= len(mag) {
			return nil, fmt.Errorf("baseline: index %d out of range for %d sensors", i, len(mag))
		}
	}
	var mu float64
	for _, i := range baselineIdx {
		mu += mag[i]
	}
	mu /= float64(len(baselineIdx))
	var vr float64
	for _, i := range baselineIdx {
		d := mag[i] - mu
		vr += d * d
	}
	vr /= float64(len(baselineIdx) - 1)
	sd := math.Sqrt(vr)
	if sd == 0 || math.IsNaN(sd) {
		return nil, ErrNoBaseline
	}
	z := make([]float64, len(mag))
	for i, v := range mag {
		z[i] = (v - mu) / sd
	}
	return z, nil
}

// Class is the paper's interpretation band for a z-score.
type Class int

// Bands from the case studies: |z| ≤ 1.5 is near baseline; z > 2 means
// dangerously hot components; negative z suggests idle/stalled nodes.
const (
	Cold Class = iota // z < −1.5: under-utilized / stalled
	Near              // −1.5 ≤ z ≤ 1.5: close to baseline
	Warm              // 1.5 < z ≤ 2
	Hot               // z > 2: overheating risk
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Cold:
		return "cold"
	case Near:
		return "near-baseline"
	case Warm:
		return "warm"
	case Hot:
		return "hot"
	}
	return "unknown"
}

// Classify maps a z-score to its band.
func Classify(z float64) Class {
	switch {
	case z < -1.5:
		return Cold
	case z <= 1.5:
		return Near
	case z <= 2:
		return Warm
	default:
		return Hot
	}
}

// Summary holds distribution statistics of a z-score vector.
type Summary struct {
	Mean, Std, Min, Max float64
	NumCold, NumNear    int
	NumWarm, NumHot     int
}

// Summarize computes a Summary.
func Summarize(z []float64) Summary {
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	if len(z) == 0 {
		return Summary{}
	}
	for _, v := range z {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		switch Classify(v) {
		case Cold:
			s.NumCold++
		case Near:
			s.NumNear++
		case Warm:
			s.NumWarm++
		default:
			s.NumHot++
		}
	}
	s.Mean /= float64(len(z))
	var vr float64
	for _, v := range z {
		d := v - s.Mean
		vr += d * d
	}
	s.Std = math.Sqrt(vr / float64(len(z)))
	return s
}

// SeparationGap measures how well z separates two index sets: the
// difference between the lower quartile of |z| over `anomalous` and the
// upper quartile of |z| over `normal`. Positive values mean the
// populations separate (used by the Fig. 8 comparison).
func SeparationGap(z []float64, normal, anomalous []int) float64 {
	if len(normal) == 0 || len(anomalous) == 0 {
		return 0
	}
	absAt := func(idx []int) []float64 {
		v := make([]float64, 0, len(idx))
		for _, i := range idx {
			v = append(v, math.Abs(z[i]))
		}
		sort.Float64s(v)
		return v
	}
	nv := absAt(normal)
	av := absAt(anomalous)
	upperNormal := nv[(len(nv)*3)/4]
	lowerAnomalous := av[len(av)/4]
	return lowerAnomalous - upperNormal
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
