package joblog

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func simSmall(seed int64) *Schedule {
	return Simulate(SimConfig{
		NumNodes: 64, Horizon: 24 * 3600, Seed: seed,
		MeanInterarrival: 300, MeanDuration: 2 * 3600,
	})
}

func TestSimulateInvariants(t *testing.T) {
	f := func(seed int64) bool {
		s := simSmall(seed)
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateProducesJobs(t *testing.T) {
	s := simSmall(1)
	if len(s.Jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	if u := s.Utilization(0, s.Horizon); u <= 0 || u > 1 {
		t.Fatalf("utilization %g out of (0,1]", u)
	}
}

func TestBusyAtConsistent(t *testing.T) {
	s := simSmall(2)
	for i := range s.Jobs {
		j := &s.Jobs[i]
		mid := (j.Start + j.End) / 2
		for _, n := range j.Nodes {
			got, ok := s.BusyAt(n, mid)
			if !ok {
				t.Fatalf("node %d not busy during its own job %d", n, j.ID)
			}
			if got.ID != j.ID {
				t.Fatalf("node %d at %f: got job %d want %d", n, mid, got.ID, j.ID)
			}
			// Just before start the node must not be running this job.
			if g, ok := s.BusyAt(n, j.Start-1e-6); ok && g.ID == j.ID {
				t.Fatalf("job %d active before its start", j.ID)
			}
		}
	}
}

func TestBusyAtOutOfRange(t *testing.T) {
	s := simSmall(3)
	if _, ok := s.BusyAt(-1, 0); ok {
		t.Fatal("negative node busy")
	}
	if _, ok := s.BusyAt(10_000, 0); ok {
		t.Fatal("out-of-range node busy")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := simSmall(5)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, s.NumNodes, s.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(s.Jobs) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(got.Jobs), len(s.Jobs))
	}
	for i := range s.Jobs {
		a, b := s.Jobs[i], got.Jobs[i]
		if a.ID != b.ID || a.Project != b.Project || a.Queue != b.Queue ||
			len(a.Nodes) != len(b.Nodes) {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	bad := []string{
		"job_id,project,queue,node_count,nodes,start_s,end_s\nx,p,q,1,0,0,10\n",
		"job_id,project,queue,node_count,nodes,start_s,end_s\n1,p,q,1,z,0,10\n",
		"job_id,project,queue,node_count,nodes,start_s,end_s\n1,p,q,1,0,z,10\n",
	}
	for _, s := range bad {
		if _, err := ReadCSV(strings.NewReader(s), 4, 100); err == nil {
			t.Errorf("ReadCSV(%q) should fail", s)
		}
	}
}

func TestValidateCatchesDoubleBooking(t *testing.T) {
	s := &Schedule{NumNodes: 4, Horizon: 100, Jobs: []Job{
		{ID: 1, Project: "a", Nodes: []int{1}, Start: 0, End: 50},
		{ID: 2, Project: "b", Nodes: []int{1}, Start: 25, End: 75},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("double booking not detected")
	}
}

func TestValidateCatchesBadJobs(t *testing.T) {
	cases := []*Schedule{
		{NumNodes: 4, Jobs: []Job{{ID: 1, Nodes: []int{0}, Start: 10, End: 10}}},
		{NumNodes: 4, Jobs: []Job{{ID: 1, Nodes: nil, Start: 0, End: 10}}},
		{NumNodes: 4, Jobs: []Job{{ID: 1, Nodes: []int{9}, Start: 0, End: 10}}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid schedule accepted", i)
		}
	}
}

func TestAllocateContiguityPreference(t *testing.T) {
	// With an empty machine the allocator must hand out a contiguous run.
	freeAt := make([]float64, 32)
	nodes := allocate(freeAt, 0, 8)
	if len(nodes) != 8 {
		t.Fatalf("allocated %d nodes, want 8", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] != nodes[i-1]+1 {
			t.Fatalf("allocation not contiguous: %v", nodes)
		}
	}
}

func TestAllocateFragmented(t *testing.T) {
	// Only fragmented space: must still gather enough nodes.
	freeAt := make([]float64, 10)
	for i := 0; i < 10; i += 2 {
		freeAt[i] = 100 // evens busy
	}
	nodes := allocate(freeAt, 0, 3)
	if len(nodes) != 3 {
		t.Fatalf("allocated %v, want 3 odd nodes", nodes)
	}
	for _, n := range nodes {
		if n%2 == 0 {
			t.Fatalf("allocated busy node %d", n)
		}
	}
}

func TestAllocateInsufficient(t *testing.T) {
	freeAt := []float64{100, 100, 0}
	if nodes := allocate(freeAt, 0, 2); nodes != nil {
		t.Fatalf("allocation should fail, got %v", nodes)
	}
}

func TestSimulateDeterminism(t *testing.T) {
	a := simSmall(42)
	b := simSmall(42)
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("same seed produced different schedules")
	}
	for i := range a.Jobs {
		if a.Jobs[i].Start != b.Jobs[i].Start || a.Jobs[i].Project != b.Jobs[i].Project {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestUtilizationEdges(t *testing.T) {
	s := &Schedule{NumNodes: 2, Horizon: 100, Jobs: []Job{
		{ID: 1, Project: "a", Nodes: []int{0, 1}, Start: 0, End: 100},
	}}
	if u := s.Utilization(0, 100); u != 1 {
		t.Fatalf("full utilization = %g want 1", u)
	}
	if u := s.Utilization(100, 100); u != 0 {
		t.Fatal("empty window should be 0")
	}
}
