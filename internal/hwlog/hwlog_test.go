package hwlog

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateBursts(t *testing.T) {
	log := Generate(GenConfig{
		NumNodes: 100, Horizon: 3600, Seed: 1, BackgroundRate: 0,
		Bursts: []Burst{
			{Node: 7, Cat: MemCorrectable, Start: 100, End: 200, Count: 25},
			{Node: 9, Cat: NodeDown, Start: 0, End: 3600, Count: 3},
		},
	})
	counts := log.CountByNode(MemCorrectable, 0, 3600)
	if counts[7] != 25 {
		t.Fatalf("node 7 mem_correctable count = %d want 25", counts[7])
	}
	if got := log.NodesWith(NodeDown, 3, 0, 3600); len(got) != 1 || got[0] != 9 {
		t.Fatalf("NodesWith(NodeDown) = %v want [9]", got)
	}
	// Burst events stay inside their window.
	for _, e := range log.Events {
		if e.Node == 7 && (e.Time < 100 || e.Time >= 200) {
			t.Fatalf("burst event escaped window: %+v", e)
		}
	}
}

func TestGenerateBackgroundRate(t *testing.T) {
	// 1000 nodes × 10 days × 0.5 events/node/day ≈ 5000 events.
	log := Generate(GenConfig{NumNodes: 1000, Horizon: 10 * 86400, Seed: 2, BackgroundRate: 0.5})
	n := len(log.Events)
	if n < 4000 || n > 6000 {
		t.Fatalf("background events = %d, want ≈5000", n)
	}
}

func TestEventsSorted(t *testing.T) {
	f := func(seed int64) bool {
		log := Generate(GenConfig{NumNodes: 50, Horizon: 86400, Seed: seed, BackgroundRate: 2,
			Bursts: []Burst{{Node: 3, Cat: MachineCheck, Start: 50, End: 5000, Count: 10}}})
		return sort.SliceIsSorted(log.Events, func(a, b int) bool {
			return log.Events[a].Time < log.Events[b].Time
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCategorySeverityStrings(t *testing.T) {
	for c := MemCorrectable; c < numCategories; c++ {
		s := c.String()
		back, err := ParseCategory(s)
		if err != nil || back != c {
			t.Fatalf("category %d round trip failed: %q", c, s)
		}
	}
	for _, sev := range []Severity{Info, Warn, Error, Fatal} {
		back, err := ParseSeverity(sev.String())
		if err != nil || back != sev {
			t.Fatalf("severity round trip failed: %v", sev)
		}
	}
	if _, err := ParseCategory("nope"); err == nil {
		t.Fatal("unknown category accepted")
	}
	if _, err := ParseSeverity("nope"); err == nil {
		t.Fatal("unknown severity accepted")
	}
}

func TestDefaultSeverities(t *testing.T) {
	if defaultSeverity(NodeDown) != Fatal {
		t.Fatal("node_down should be fatal")
	}
	if defaultSeverity(MemCorrectable) != Warn {
		t.Fatal("mem_correctable should be warn")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	log := Generate(GenConfig{NumNodes: 20, Horizon: 86400, Seed: 3, BackgroundRate: 5,
		Bursts: []Burst{{Node: 11, Cat: PowerFault, Start: 10, End: 20, Count: 4}}})
	var buf bytes.Buffer
	if err := log.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(log.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.Events), len(log.Events))
	}
	for i := range got.Events {
		a, b := log.Events[i], got.Events[i]
		if a.Node != b.Node || a.Cat != b.Cat || a.Sev != b.Sev || a.Msg != b.Msg {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	bad := []string{
		"time_s,node,category,severity,message\nx,1,machine_check,error,m\n",
		"time_s,node,category,severity,message\n1,x,machine_check,error,m\n",
		"time_s,node,category,severity,message\n1,1,bogus,error,m\n",
		"time_s,node,category,severity,message\n1,1,machine_check,bogus,m\n",
	}
	for _, s := range bad {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", s)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	// Sample mean of the Poisson sampler should approximate its mean
	// parameter in both the inversion and normal-approximation regimes.
	log := Generate(GenConfig{NumNodes: 1, Horizon: 86400, Seed: 4, BackgroundRate: 10})
	_ = log
	// Direct check via many draws:
	rngLog := Generate(GenConfig{NumNodes: 2000, Horizon: 86400, Seed: 5, BackgroundRate: 1})
	mean := float64(len(rngLog.Events)) / 2000
	if mean < 0.8 || mean > 1.2 {
		t.Fatalf("poisson mean per node = %g want ≈1", mean)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(GenConfig{NumNodes: 30, Horizon: 3600, Seed: 7, BackgroundRate: 3})
	b := Generate(GenConfig{NumNodes: 30, Horizon: 3600, Seed: 7, BackgroundRate: 3})
	if len(a.Events) != len(b.Events) {
		t.Fatal("same seed, different logs")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatal("same seed, different events")
		}
	}
}
