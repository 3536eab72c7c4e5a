// Package hwlog models the hardware-error-log fidelity level: categorized
// per-node events (correctable memory errors, machine checks, node-down
// transitions, …), a seeded generator with background rates plus injected
// per-node bursts, and a CSV round trip. The case studies overlay these
// events on the rack view (the red/black node outlines in Figs. 4 and 6).
package hwlog

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// Category classifies an event.
type Category int

// Hardware event categories (a representative subset of the Cray
// hardware error log taxonomy).
const (
	MemCorrectable Category = iota
	MemUncorrectable
	MachineCheck
	NodeDown
	PowerFault
	LinkError
	numCategories
)

var categoryNames = [...]string{
	MemCorrectable:   "mem_correctable",
	MemUncorrectable: "mem_uncorrectable",
	MachineCheck:     "machine_check",
	NodeDown:         "node_down",
	PowerFault:       "power_fault",
	LinkError:        "link_error",
}

// String returns the log token for the category.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// ParseCategory inverts String.
func ParseCategory(s string) (Category, error) {
	for i, n := range categoryNames {
		if n == s {
			return Category(i), nil
		}
	}
	return 0, fmt.Errorf("hwlog: unknown category %q", s)
}

// Severity grades an event.
type Severity int

// Severities in increasing order of concern.
const (
	Info Severity = iota
	Warn
	Error
	Fatal
)

var severityNames = [...]string{"info", "warn", "error", "fatal"}

// String returns the log token for the severity.
func (s Severity) String() string {
	if s < 0 || int(s) >= len(severityNames) {
		return fmt.Sprintf("severity(%d)", int(s))
	}
	return severityNames[s]
}

// ParseSeverity inverts String.
func ParseSeverity(s string) (Severity, error) {
	for i, n := range severityNames {
		if n == s {
			return Severity(i), nil
		}
	}
	return 0, fmt.Errorf("hwlog: unknown severity %q", s)
}

// defaultSeverity maps categories to their usual severity.
func defaultSeverity(c Category) Severity {
	switch c {
	case MemCorrectable:
		return Warn
	case MemUncorrectable, MachineCheck:
		return Error
	case NodeDown:
		return Fatal
	case PowerFault:
		return Error
	default:
		return Warn
	}
}

// Event is one hardware log record.
type Event struct {
	Time float64 // seconds since the trace epoch
	Node int
	Cat  Category
	Sev  Severity
	Msg  string
}

// Log is a time-ordered collection of events.
type Log struct {
	Events []Event
}

// sorted ensures time order (generators produce sorted logs; parsers may
// not).
func (l *Log) sorted() {
	sort.SliceStable(l.Events, func(a, b int) bool { return l.Events[a].Time < l.Events[b].Time })
}

// CountByNode tallies events of a category per node over [t0, t1).
func (l *Log) CountByNode(cat Category, t0, t1 float64) map[int]int {
	out := map[int]int{}
	for _, e := range l.Events {
		if e.Cat == cat && e.Time >= t0 && e.Time < t1 {
			out[e.Node]++
		}
	}
	return out
}

// NodesWith returns nodes with at least minCount events of the category
// in [t0, t1), sorted.
func (l *Log) NodesWith(cat Category, minCount int, t0, t1 float64) []int {
	counts := l.CountByNode(cat, t0, t1)
	var out []int
	for n, c := range counts {
		if c >= minCount {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// GenConfig drives the synthetic generator.
type GenConfig struct {
	NumNodes int
	Horizon  float64 // seconds
	Seed     int64
	// BackgroundRate is events per node per day across all categories
	// (default 0.02 — hardware errors are rare).
	BackgroundRate float64
	// Bursts inject concentrated faults on specific nodes, the ground
	// truth the case studies correlate against.
	Bursts []Burst
}

// Burst is a concentrated fault episode on one node.
type Burst struct {
	Node  int
	Cat   Category
	Start float64
	End   float64
	Count int // events spread across [Start, End)
}

// Generate produces a Log with Poisson background noise plus the
// configured bursts.
func Generate(cfg GenConfig) *Log {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rate := cfg.BackgroundRate
	if rate <= 0 {
		rate = 0.02
	}
	log := &Log{}
	// Background: expected events = rate/day × nodes × horizon.
	expected := rate * float64(cfg.NumNodes) * cfg.Horizon / 86400
	n := poisson(rng, expected)
	for i := 0; i < n; i++ {
		cat := Category(rng.Intn(int(numCategories)))
		node := rng.Intn(cfg.NumNodes)
		t := rng.Float64() * cfg.Horizon
		log.Events = append(log.Events, Event{
			Time: t, Node: node, Cat: cat, Sev: defaultSeverity(cat),
			Msg: fmt.Sprintf("%s on node %d", cat, node),
		})
	}
	for _, b := range cfg.Bursts {
		span := b.End - b.Start
		if span <= 0 || b.Count <= 0 {
			continue
		}
		for i := 0; i < b.Count; i++ {
			t := b.Start + rng.Float64()*span
			log.Events = append(log.Events, Event{
				Time: t, Node: b.Node, Cat: b.Cat, Sev: defaultSeverity(b.Cat),
				Msg: fmt.Sprintf("%s burst on node %d", b.Cat, b.Node),
			})
		}
	}
	log.sorted()
	return log
}

// poisson samples a Poisson variate by inversion for small means and a
// normal approximation above.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(mean + rng.NormFloat64()*math.Sqrt(mean) + 0.5)
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= rng.Float64()
	}
	return k - 1
}

// WriteCSV emits time,node,category,severity,message rows.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "node", "category", "severity", "message"}); err != nil {
		return err
	}
	for _, e := range l.Events {
		rec := []string{
			strconv.FormatFloat(e.Time, 'f', 3, 64),
			strconv.Itoa(e.Node),
			e.Cat.String(),
			e.Sev.String(),
			e.Msg,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses records written by WriteCSV.
func ReadCSV(r io.Reader) (*Log, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("hwlog: %w", err)
	}
	log := &Log{}
	for i, rec := range rows {
		if i == 0 && len(rec) > 0 && rec[0] == "time_s" {
			continue
		}
		if len(rec) != 5 {
			return nil, fmt.Errorf("hwlog: row %d has %d fields, want 5", i, len(rec))
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("hwlog: row %d time: %w", i, err)
		}
		node, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("hwlog: row %d node: %w", i, err)
		}
		cat, err := ParseCategory(rec[2])
		if err != nil {
			return nil, fmt.Errorf("hwlog: row %d: %w", i, err)
		}
		sev, err := ParseSeverity(rec[3])
		if err != nil {
			return nil, fmt.Errorf("hwlog: row %d: %w", i, err)
		}
		log.Events = append(log.Events, Event{Time: t, Node: node, Cat: cat, Sev: sev, Msg: rec[4]})
	}
	log.sorted()
	return log, nil
}
