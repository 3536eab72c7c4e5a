// Package monitor closes the loop the paper's pipeline feeds: a running
// I-mrDMD over a telemetry stream, with per-update baseline z-score
// evaluation and debounced alerting when sensors leave their band — the
// "prompt identification of anomalies in these large-scale systems" the
// online analysis exists for.
package monitor

import (
	"errors"
	"fmt"

	"imrdmd/internal/baseline"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

// Config parameterizes a Monitor.
type Config struct {
	// Opts configures the underlying I-mrDMD.
	Opts core.Options
	// BaselineLo/Hi select baseline sensors by time-mean over the initial
	// window (the paper's selection rule).
	BaselineLo, BaselineHi float64
	// HotZ and ColdZ are the alert thresholds (defaults +2 and −1.5, the
	// paper's interpretation bands).
	HotZ, ColdZ float64
	// MinConsecutive debounces alerts: a sensor must breach its threshold
	// on this many consecutive updates before an alert fires (default 1).
	MinConsecutive int
	// EvalWindow evaluates z-scores over only the most recent EvalWindow
	// columns, so recovered sensors fall back to baseline instead of
	// carrying their whole-history mean. Zero evaluates the full history.
	EvalWindow int
}

// AlertKind distinguishes overheating from idle/stalled signatures.
type AlertKind int

// Alert kinds.
const (
	// Hot: z above HotZ — overheating risk (paper: component failure).
	Hot AlertKind = iota
	// Cold: z below ColdZ — node idle or stalled (paper: wasted
	// allocation, suboptimal utilization).
	Cold
)

// String names the kind.
func (k AlertKind) String() string {
	if k == Hot {
		return "hot"
	}
	return "cold"
}

// Alert is one debounced threshold crossing.
type Alert struct {
	Sensor int
	Kind   AlertKind
	Z      float64
	// Step is the absorbed-column count when the alert fired.
	Step int
	// Consecutive is how many updates the breach has persisted.
	Consecutive int
}

// String formats the alert for logs.
func (a Alert) String() string {
	return fmt.Sprintf("step %d: sensor %d %s (z=%+.2f, %d consecutive)",
		a.Step, a.Sensor, a.Kind, a.Z, a.Consecutive)
}

// Monitor is the streaming assessment loop.
type Monitor struct {
	cfg     Config
	inc     *core.Incremental
	baseIdx []int
	hotRun  []int
	coldRun []int
	started bool
}

// New creates a Monitor.
func New(cfg Config) *Monitor {
	if cfg.HotZ == 0 {
		cfg.HotZ = 2
	}
	if cfg.ColdZ == 0 {
		cfg.ColdZ = -1.5
	}
	if cfg.MinConsecutive <= 0 {
		cfg.MinConsecutive = 1
	}
	return &Monitor{cfg: cfg, inc: core.NewIncremental(cfg.Opts)}
}

// Start fits the initial window and selects the baseline population.
func (m *Monitor) Start(first *mat.Dense) error {
	if m.started {
		return errors.New("monitor: Start called twice")
	}
	if err := m.inc.InitialFit(first); err != nil {
		return err
	}
	m.baseIdx = baseline.SelectByMeanRange(first, m.cfg.BaselineLo, m.cfg.BaselineHi)
	if len(m.baseIdx) < 2 {
		return fmt.Errorf("monitor: baseline band [%g, %g] selected %d sensors, need ≥2",
			m.cfg.BaselineLo, m.cfg.BaselineHi, len(m.baseIdx))
	}
	m.hotRun = make([]int, first.R)
	m.coldRun = make([]int, first.R)
	m.started = true
	return nil
}

// Observe absorbs a batch of new columns, re-evaluates z-scores, and
// returns the alerts that fired on this update.
func (m *Monitor) Observe(batch *mat.Dense) ([]Alert, error) {
	if !m.started {
		return nil, errors.New("monitor: Observe before Start")
	}
	if _, err := m.inc.PartialFit(batch); err != nil {
		return nil, err
	}
	z, err := m.ZScores()
	if err != nil {
		return nil, err
	}
	step := m.inc.Cols()
	var alerts []Alert
	for i, v := range z {
		if v > m.cfg.HotZ {
			m.hotRun[i]++
			m.coldRun[i] = 0
			if m.hotRun[i] >= m.cfg.MinConsecutive {
				alerts = append(alerts, Alert{Sensor: i, Kind: Hot, Z: v, Step: step, Consecutive: m.hotRun[i]})
			}
			continue
		}
		if v < m.cfg.ColdZ {
			m.coldRun[i]++
			m.hotRun[i] = 0
			if m.coldRun[i] >= m.cfg.MinConsecutive {
				alerts = append(alerts, Alert{Sensor: i, Kind: Cold, Z: v, Step: step, Consecutive: m.coldRun[i]})
			}
			continue
		}
		m.hotRun[i] = 0
		m.coldRun[i] = 0
	}
	return alerts, nil
}

// ZScores returns the current per-sensor z-scores over the full band,
// windowed to the configured recency horizon.
func (m *Monitor) ZScores() ([]float64, error) {
	tree := m.inc.Tree()
	var levels []float64
	if m.cfg.EvalWindow > 0 {
		hi := m.inc.Cols()
		levels = tree.ReadingLevelsRange(core.FullBand(), hi-m.cfg.EvalWindow, hi)
	} else {
		levels = tree.ReadingLevels(core.FullBand())
	}
	return baseline.ZScores(levels, m.baseIdx)
}

// Steps returns the absorbed column count.
func (m *Monitor) Steps() int { return m.inc.Cols() }

// Analyzer exposes the underlying I-mrDMD for reconstruction or spectrum
// queries.
func (m *Monitor) Analyzer() *core.Incremental { return m.inc }
