// Package joblog models the job-log fidelity level of the paper's
// multifidelity stack: job records (project, queue, node allocation,
// start/end times), a first-fit scheduler simulator that produces
// realistic schedules over a rack topology, and a Cobalt-style CSV
// encoding. The case studies align these records with environment-log
// patterns (which nodes ran which project when temperatures rose).
package joblog

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Job is one scheduler record.
type Job struct {
	ID      int
	Project string
	Queue   string
	Nodes   []int   // dense node indices (rack enumeration order)
	Start   float64 // seconds since the trace epoch
	End     float64 // seconds since the trace epoch
}

// Duration returns the job's wall time in seconds.
func (j *Job) Duration() float64 { return j.End - j.Start }

// Schedule is a set of jobs over a machine of NumNodes nodes.
type Schedule struct {
	NumNodes int
	Horizon  float64 // seconds covered by the trace
	Jobs     []Job

	// byNode[i] lists the indices into Jobs that touched node i, sorted
	// by start time. Built lazily by index().
	byNode [][]int
}

// index builds the per-node interval lookup.
func (s *Schedule) index() {
	if s.byNode != nil {
		return
	}
	s.byNode = make([][]int, s.NumNodes)
	order := make([]int, len(s.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s.Jobs[order[a]].Start < s.Jobs[order[b]].Start })
	for _, ji := range order {
		for _, n := range s.Jobs[ji].Nodes {
			if n >= 0 && n < s.NumNodes {
				s.byNode[n] = append(s.byNode[n], ji)
			}
		}
	}
}

// BusyAt returns the job occupying node at time t, if any. Nodes run at
// most one job at a time (the scheduler never double-books).
func (s *Schedule) BusyAt(node int, t float64) (*Job, bool) {
	if node < 0 || node >= s.NumNodes {
		return nil, false
	}
	s.index()
	for _, ji := range s.byNode[node] {
		j := &s.Jobs[ji]
		if j.Start > t {
			break
		}
		if t < j.End {
			return j, true
		}
	}
	return nil, false
}

// Utilization returns the fraction of node-seconds busy over [t0, t1).
func (s *Schedule) Utilization(t0, t1 float64) float64 {
	if t1 <= t0 || s.NumNodes == 0 {
		return 0
	}
	var busy float64
	for i := range s.Jobs {
		j := &s.Jobs[i]
		lo, hi := j.Start, j.End
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		if hi > lo {
			busy += (hi - lo) * float64(len(j.Nodes))
		}
	}
	return busy / ((t1 - t0) * float64(s.NumNodes))
}

// Validate checks scheduler invariants: jobs within the horizon, node
// indices in range, and no node double-booked.
func (s *Schedule) Validate() error {
	type iv struct {
		start, end float64
		id         int
	}
	per := make(map[int][]iv)
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if j.End <= j.Start {
			return fmt.Errorf("joblog: job %d has nonpositive duration", j.ID)
		}
		if len(j.Nodes) == 0 {
			return fmt.Errorf("joblog: job %d has no nodes", j.ID)
		}
		for _, n := range j.Nodes {
			if n < 0 || n >= s.NumNodes {
				return fmt.Errorf("joblog: job %d uses out-of-range node %d", j.ID, n)
			}
			per[n] = append(per[n], iv{j.Start, j.End, j.ID})
		}
	}
	for n, list := range per {
		sort.Slice(list, func(a, b int) bool { return list[a].start < list[b].start })
		for i := 1; i < len(list); i++ {
			if list[i].start < list[i-1].end {
				return fmt.Errorf("joblog: node %d double-booked by jobs %d and %d",
					n, list[i-1].id, list[i].id)
			}
		}
	}
	return nil
}

// WriteCSV emits Cobalt-style records:
// id,project,queue,node_count,node_list(';'-separated),start,end.
func (s *Schedule) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job_id", "project", "queue", "node_count", "nodes", "start_s", "end_s"}); err != nil {
		return err
	}
	for i := range s.Jobs {
		j := &s.Jobs[i]
		nodes := make([]string, len(j.Nodes))
		for k, n := range j.Nodes {
			nodes[k] = strconv.Itoa(n)
		}
		rec := []string{
			strconv.Itoa(j.ID), j.Project, j.Queue,
			strconv.Itoa(len(j.Nodes)), strings.Join(nodes, ";"),
			strconv.FormatFloat(j.Start, 'f', 3, 64),
			strconv.FormatFloat(j.End, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses records written by WriteCSV.
func ReadCSV(r io.Reader, numNodes int, horizon float64) (*Schedule, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("joblog: %w", err)
	}
	s := &Schedule{NumNodes: numNodes, Horizon: horizon}
	for i, rec := range rows {
		if i == 0 && len(rec) > 0 && rec[0] == "job_id" {
			continue // header
		}
		if len(rec) != 7 {
			return nil, fmt.Errorf("joblog: row %d has %d fields, want 7", i, len(rec))
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("joblog: row %d id: %w", i, err)
		}
		var nodes []int
		if rec[4] != "" {
			for _, f := range strings.Split(rec[4], ";") {
				n, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("joblog: row %d nodes: %w", i, err)
				}
				nodes = append(nodes, n)
			}
		}
		start, err := strconv.ParseFloat(rec[5], 64)
		if err != nil {
			return nil, fmt.Errorf("joblog: row %d start: %w", i, err)
		}
		end, err := strconv.ParseFloat(rec[6], 64)
		if err != nil {
			return nil, fmt.Errorf("joblog: row %d end: %w", i, err)
		}
		s.Jobs = append(s.Jobs, Job{ID: id, Project: rec[1], Queue: rec[2], Nodes: nodes, Start: start, End: end})
	}
	return s, nil
}
