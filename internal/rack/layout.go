// Package rack implements the paper's generalizable supercomputer layout
// specification (§III-B): a single string describes the hierarchy
// rows → racks → cabinets → slots → blades → nodes together with per-level
// row/column alignments, and the package turns it into node enumerations
// and normalized geometry for the rack-view visualization.
//
// The format, quoting the paper:
//
//	"system-name rack-row-align rack-col-align Rows[rack-range]:[racks-per-row]
//	 cab-row-align cab-col-align Cabinets:[range] slot-aligns Slots:[range]
//	 blade-aligns Blades:[range] Nodes:[range]"
//
// Alignments are -1 (right-to-left), 1 (left-to-right), 2 (bottom-to-top);
// the default 0 is top-to-bottom. Example (an XC40 like Theta):
//
//	"xc40 1 2 row0-1:0-10 2 c:0-7 1 s:0-7 1 b:0 n:0"
package rack

import (
	"fmt"
	"strconv"
	"strings"
)

// Align is a layout direction code as defined by the paper.
type Align int

// Alignment codes. The zero value is the paper's default (top-to-bottom
// for row alignment, and natural order for column alignment).
const (
	TopToBottom Align = 0
	RightToLeft Align = -1
	LeftToRight Align = 1
	BottomToTop Align = 2
)

func (a Align) valid() bool {
	switch a {
	case TopToBottom, RightToLeft, LeftToRight, BottomToTop:
		return true
	}
	return false
}

// Level is one tier of the hierarchy with its index range (inclusive) and
// alignment pair.
type Level struct {
	From, To           int
	RowAlign, ColAlign Align
}

// Count returns the number of elements at this level.
func (l Level) Count() int { return l.To - l.From + 1 }

// Layout is a parsed system layout.
type Layout struct {
	System string

	// Rows of racks: rows RowFrom..RowTo, racks RackFrom..RackTo per row.
	RowFrom, RowTo   int
	RackFrom, RackTo int
	RackRowAlign     Align
	RackColAlign     Align

	Cabinets Level
	Slots    Level
	Blades   Level
	Nodes    Level
}

// NumRows returns the number of rack rows.
func (l *Layout) NumRows() int { return l.RowTo - l.RowFrom + 1 }

// RacksPerRow returns the racks in each row.
func (l *Layout) RacksPerRow() int { return l.RackTo - l.RackFrom + 1 }

// NumRacks returns the total rack count.
func (l *Layout) NumRacks() int { return l.NumRows() * l.RacksPerRow() }

// NodesPerRack returns cabinet×slot×blade×node count.
func (l *Layout) NodesPerRack() int {
	return l.Cabinets.Count() * l.Slots.Count() * l.Blades.Count() * l.Nodes.Count()
}

// TotalNodes returns the machine-wide node count.
func (l *Layout) TotalNodes() int { return l.NumRacks() * l.NodesPerRack() }

// Parse reads the layout DSL described in the package comment.
func Parse(spec string) (*Layout, error) {
	fields := strings.Fields(spec)
	if len(fields) < 2 {
		return nil, fmt.Errorf("rack: spec needs at least a system name and a row spec, got %q", spec)
	}
	l := &Layout{System: fields[0]}
	rest := fields[1:]

	// Collect alignment numbers until the next structured token; each
	// level consumes up to two pending alignments (row, column).
	var pending []Align
	takeAligns := func() (row, col Align) {
		switch len(pending) {
		case 0:
			return TopToBottom, LeftToRight
		case 1:
			row = pending[0]
			pending = nil
			return row, LeftToRight
		default:
			row, col = pending[0], pending[1]
			pending = nil
			return row, col
		}
	}

	seen := map[string]bool{}
	for _, tok := range rest {
		low := strings.ToLower(tok)
		switch {
		case isAlignToken(tok):
			n, _ := strconv.Atoi(tok)
			a := Align(n)
			if !a.valid() {
				return nil, fmt.Errorf("rack: invalid alignment %q", tok)
			}
			if len(pending) >= 2 {
				return nil, fmt.Errorf("rack: more than two alignment numbers before %q", tok)
			}
			pending = append(pending, a)

		case strings.HasPrefix(low, "row"):
			if seen["row"] {
				return nil, fmt.Errorf("rack: duplicate row spec %q", tok)
			}
			seen["row"] = true
			body := tok[len("row"):]
			parts := strings.SplitN(body, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("rack: row spec %q must look like row0-1:0-10", tok)
			}
			var err error
			if l.RowFrom, l.RowTo, err = parseRange(parts[0]); err != nil {
				return nil, fmt.Errorf("rack: row range: %w", err)
			}
			if l.RackFrom, l.RackTo, err = parseRange(parts[1]); err != nil {
				return nil, fmt.Errorf("rack: rack range: %w", err)
			}
			l.RackRowAlign, l.RackColAlign = takeAligns()

		case strings.HasPrefix(low, "c:"), strings.HasPrefix(low, "cabinets:"), strings.HasPrefix(low, "cages:"):
			lv, err := parseLevel(tok, &pending, takeAligns)
			if err != nil {
				return nil, err
			}
			if seen["c"] {
				return nil, fmt.Errorf("rack: duplicate cabinet spec %q", tok)
			}
			seen["c"] = true
			l.Cabinets = lv

		case strings.HasPrefix(low, "s:"), strings.HasPrefix(low, "slots:"):
			lv, err := parseLevel(tok, &pending, takeAligns)
			if err != nil {
				return nil, err
			}
			if seen["s"] {
				return nil, fmt.Errorf("rack: duplicate slot spec %q", tok)
			}
			seen["s"] = true
			l.Slots = lv

		case strings.HasPrefix(low, "b:"), strings.HasPrefix(low, "blades:"):
			lv, err := parseLevel(tok, &pending, takeAligns)
			if err != nil {
				return nil, err
			}
			if seen["b"] {
				return nil, fmt.Errorf("rack: duplicate blade spec %q", tok)
			}
			seen["b"] = true
			l.Blades = lv

		case strings.HasPrefix(low, "n:"), strings.HasPrefix(low, "nodes:"):
			lv, err := parseLevel(tok, &pending, takeAligns)
			if err != nil {
				return nil, err
			}
			if seen["n"] {
				return nil, fmt.Errorf("rack: duplicate node spec %q", tok)
			}
			seen["n"] = true
			l.Nodes = lv

		default:
			return nil, fmt.Errorf("rack: unrecognized token %q", tok)
		}
	}
	if !seen["row"] {
		return nil, fmt.Errorf("rack: missing row spec in %q", spec)
	}
	// Unspecified inner levels default to a single element so partial
	// specs (racks only) still enumerate.
	for _, lv := range []*Level{&l.Cabinets, &l.Slots, &l.Blades, &l.Nodes} {
		if lv.To < lv.From {
			lv.From, lv.To = 0, 0
		}
	}
	if len(pending) != 0 {
		return nil, fmt.Errorf("rack: trailing alignment numbers in %q", spec)
	}
	return l, nil
}

func isAlignToken(tok string) bool {
	switch tok {
	case "-1", "0", "1", "2":
		return true
	}
	return false
}

func parseLevel(tok string, pending *[]Align, takeAligns func() (Align, Align)) (Level, error) {
	parts := strings.SplitN(tok, ":", 2)
	if len(parts) != 2 {
		return Level{}, fmt.Errorf("rack: level spec %q must look like c:0-7", tok)
	}
	from, to, err := parseRange(parts[1])
	if err != nil {
		return Level{}, fmt.Errorf("rack: level %q: %w", tok, err)
	}
	lv := Level{From: from, To: to}
	lv.RowAlign, lv.ColAlign = takeAligns()
	return lv, nil
}

// parseRange parses "a-b" or "a" (meaning a-a), requiring a ≤ b and a ≥ 0.
func parseRange(s string) (from, to int, err error) {
	if s == "" {
		return 0, 0, fmt.Errorf("empty range")
	}
	parts := strings.SplitN(s, "-", 2)
	from, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad range %q: %w", s, err)
	}
	to = from
	if len(parts) == 2 {
		to, err = strconv.Atoi(parts[1])
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q: %w", s, err)
		}
	}
	if from < 0 || to < from {
		return 0, 0, fmt.Errorf("range %q must be nonnegative and ascending", s)
	}
	return from, to, nil
}
