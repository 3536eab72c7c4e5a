package rack

import (
	"strings"
	"testing"
	"testing/quick"
)

const xc40Spec = "xc40 1 2 row0-1:0-10 2 c:0-7 1 s:0-7 1 b:0 n:0"

func TestParsePaperExample(t *testing.T) {
	// The exact example string from §III-B of the paper.
	l, err := Parse(xc40Spec)
	if err != nil {
		t.Fatal(err)
	}
	if l.System != "xc40" {
		t.Fatalf("system = %q", l.System)
	}
	if l.NumRows() != 2 || l.RacksPerRow() != 11 {
		t.Fatalf("rows=%d racks/row=%d want 2, 11", l.NumRows(), l.RacksPerRow())
	}
	if l.RackRowAlign != LeftToRight || l.RackColAlign != BottomToTop {
		t.Fatalf("rack aligns = %d,%d want 1,2", l.RackRowAlign, l.RackColAlign)
	}
	if l.Cabinets.Count() != 8 || l.Cabinets.RowAlign != BottomToTop {
		t.Fatalf("cabinets = %+v", l.Cabinets)
	}
	if l.Slots.Count() != 8 || l.Slots.RowAlign != LeftToRight {
		t.Fatalf("slots = %+v", l.Slots)
	}
	if l.Blades.Count() != 1 || l.Nodes.Count() != 1 {
		t.Fatalf("blades=%d nodes=%d want 1,1", l.Blades.Count(), l.Nodes.Count())
	}
	if got, want := l.TotalNodes(), 2*11*8*8; got != want {
		t.Fatalf("TotalNodes = %d want %d", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                           // empty
		"sys",                        // no row spec
		"sys c:0-7",                  // still no row spec
		"sys row0-1",                 // row without rack range
		"sys row0-1:5-2",             // descending range
		"sys rowa-b:0-1",             // non-numeric
		"sys 5 row0-1:0-1",           // invalid alignment value
		"sys 1 2 1 row0-0:0-0",       // three alignments
		"sys row0-0:0-0 bogus",       // unknown token
		"sys row0-0:0-0 c:0-1 c:0-1", // duplicate level
		"sys row0-0:0-0 n:0 2",       // trailing alignment
		"sys row0-0:0-0 row0-0:0-0",  // duplicate row
		"sys row-1-0:0-0",            // negative index
	}
	for _, spec := range cases {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestParseSingleValueRanges(t *testing.T) {
	l, err := Parse("mini row0:0 c:0 s:0 b:0 n:0-3")
	if err != nil {
		t.Fatal(err)
	}
	if l.TotalNodes() != 4 {
		t.Fatalf("TotalNodes = %d want 4", l.TotalNodes())
	}
}

func TestParseDefaultsInnerLevels(t *testing.T) {
	l, err := Parse("flat row0-1:0-3")
	if err != nil {
		t.Fatal(err)
	}
	if l.TotalNodes() != 8 {
		t.Fatalf("TotalNodes = %d want 8 (one node per rack)", l.TotalNodes())
	}
}

func TestEnumerateDenseAndUnique(t *testing.T) {
	l, err := Parse(xc40Spec)
	if err != nil {
		t.Fatal(err)
	}
	refs := l.Enumerate()
	if len(refs) != l.TotalNodes() {
		t.Fatalf("Enumerate returned %d refs, want %d", len(refs), l.TotalNodes())
	}
	ids := map[string]bool{}
	for i, r := range refs {
		if r.Index != i {
			t.Fatalf("ref %d has Index %d", i, r.Index)
		}
		id := r.ID()
		if ids[id] {
			t.Fatalf("duplicate node ID %q", id)
		}
		ids[id] = true
		if got := l.NodeIndex(r.Row, r.Rack, r.Cabinet, r.Slot, r.Blade, r.Node); got != i {
			t.Fatalf("NodeIndex inverse failed: got %d want %d", got, i)
		}
	}
}

func TestNodeIndexOutOfRange(t *testing.T) {
	l := Theta()
	if got := l.NodeIndex(99, 0, 0, 0, 0, 0); got != -1 {
		t.Fatalf("out-of-range row gave %d", got)
	}
	if got := l.NodeIndex(0, 0, 0, 99, 0, 0); got != -1 {
		t.Fatalf("out-of-range slot gave %d", got)
	}
}

func TestNodeIDFormat(t *testing.T) {
	r := NodeRef{Rack: 3, Row: 1, Cabinet: 2, Slot: 15, Blade: 0, Node: 2}
	if got := r.ID(); got != "c3-1c2s15b0n2" {
		t.Fatalf("ID = %q", got)
	}
}

func TestGeometryContainment(t *testing.T) {
	l, err := Parse(xc40Spec)
	if err != nil {
		t.Fatal(err)
	}
	g := l.Geometry()
	if len(g.NodeRects) != l.TotalNodes() {
		t.Fatalf("geometry has %d node rects, want %d", len(g.NodeRects), l.TotalNodes())
	}
	if len(g.Racks) != l.NumRacks() {
		t.Fatalf("geometry has %d racks, want %d", len(g.Racks), l.NumRacks())
	}
	// Every node rect must be inside the canvas and have positive area.
	for i, r := range g.NodeRects {
		if r.W <= 0 || r.H <= 0 {
			t.Fatalf("node %d has empty rect %+v", i, r)
		}
		if r.X < 0 || r.Y < 0 || r.X+r.W > g.Width+1e-9 || r.Y+r.H > g.Height+1e-9 {
			t.Fatalf("node %d rect %+v escapes canvas %gx%g", i, r, g.Width, g.Height)
		}
	}
}

func TestGeometryNoOverlap(t *testing.T) {
	l, err := Parse("mini row0-0:0-1 2 c:0-1 1 s:0-1 b:0 n:0-1")
	if err != nil {
		t.Fatal(err)
	}
	g := l.Geometry()
	for i := 0; i < len(g.NodeRects); i++ {
		for j := i + 1; j < len(g.NodeRects); j++ {
			a, b := g.NodeRects[i], g.NodeRects[j]
			if a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H {
				t.Fatalf("node rects %d and %d overlap: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

func TestBottomToTopCabinetOrder(t *testing.T) {
	// With BottomToTop cabinets, cabinet 0 must sit lower (greater Y in
	// screen coordinates) than the last cabinet.
	l, err := Parse("v row0-0:0-0 2 c:0-3 s:0 b:0 n:0")
	if err != nil {
		t.Fatal(err)
	}
	g := l.Geometry()
	c0 := g.NodeRects[l.NodeIndex(0, 0, 0, 0, 0, 0)]
	c3 := g.NodeRects[l.NodeIndex(0, 0, 3, 0, 0, 0)]
	if !(c0.Y > c3.Y) {
		t.Fatalf("cabinet 0 (Y=%g) should render below cabinet 3 (Y=%g)", c0.Y, c3.Y)
	}
}

func TestBuiltinLayouts(t *testing.T) {
	theta := Theta()
	if theta.TotalNodes() != 4608 {
		t.Fatalf("Theta slots = %d want 4608", theta.TotalNodes())
	}
	if theta.NumRacks() != 24 {
		t.Fatalf("Theta racks = %d want 24", theta.NumRacks())
	}
	polaris := Polaris()
	if polaris.TotalNodes() != 560 {
		t.Fatalf("Polaris nodes = %d want 560", polaris.TotalNodes())
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	// Parsing must be insensitive to extra whitespace.
	f := func(pad uint8) bool {
		spec := strings.Join(strings.Fields(xc40Spec), strings.Repeat(" ", int(pad%4)+1))
		l, err := Parse(spec)
		return err == nil && l.TotalNodes() == 1408
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
