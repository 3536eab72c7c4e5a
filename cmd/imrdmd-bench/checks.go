package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"imrdmd"
	"imrdmd/internal/core"
	"imrdmd/internal/server"
)

// checkSteps checks that a round ends with every column absorbed.
func (r *run) checkSteps(steps int) error {
	steps = tamper(r, "steps", steps, func(v int) int { return v + 1 })
	if want := r.shape.cols(); steps != want {
		return r.check("steps", fmt.Errorf("tenant reports %d steps, want %d", steps, want))
	}
	return r.check("steps", nil)
}

// checkReplay checks the spectrum served at the end of a round against
// the public library fed the same seed and batches.
func (r *run) checkReplay(d *dataset, served []byte) error {
	var got []server.SpectrumPoint
	if err := r.op(json.Unmarshal(served, &got)); err != nil {
		return err
	}
	s := r.shape
	a, err := imrdmd.New(r.wl.libOptions(s))
	if err := r.op(err); err != nil {
		return err
	}
	if err := r.op(a.InitialFit(seriesOf(d.data, 0, s.seedCols))); err != nil {
		return err
	}
	for k := 0; k < s.batches; k++ {
		at := s.seedCols + k*s.batchCols
		if _, err := a.PartialFit(seriesOf(d.data, at, at+s.batchCols)); r.op(err) != nil {
			return err
		}
	}
	want := make([]imrdmd.SpectrumPoint, 0, len(got))
	for _, p := range got {
		want = append(want, imrdmd.SpectrumPoint(p))
	}
	lib := tamper(r, "replay", a.Spectrum(), func(p []imrdmd.SpectrumPoint) []imrdmd.SpectrumPoint {
		return p[:len(p)-1]
	})
	return r.check("replay", sameSpectrum(lib, want))
}

func sameSpectrum(got, want []imrdmd.SpectrumPoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d spectrum points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("spectrum point %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkPolls checks what the dashboard poller saw: per path, versions
// never go backwards; a 304 answers only an If-None-Match equal to the
// current ETag; a 200 to a conditional request carries a new ETag.
func (r *run) checkPolls(obs []pollObs) error {
	obs = tamper(r, "monotone", obs, func(o []pollObs) []pollObs {
		return append(o, pollObs{path: "/error", status: 200, version: 2}, pollObs{path: "/error", status: 200, version: 1})
	})
	last := map[string]uint64{}
	var err error
	for _, o := range obs {
		if o.version < last[o.path] {
			err = fmt.Errorf("%s went from version %d to %d", o.path, last[o.path], o.version)
			break
		}
		last[o.path] = o.version
	}
	if cerr := r.check("monotone", err); cerr != nil {
		return cerr
	}
	obs = tamper(r, "etag304", obs, func(o []pollObs) []pollObs {
		return append(o, pollObs{path: "/modes", status: 304, inm: `"0"`, etag: `"1"`})
	})
	err = nil
	for _, o := range obs {
		switch {
		case o.status == 304 && (o.inm == "" || o.inm != o.etag):
			err = fmt.Errorf("%s answered 304 to If-None-Match %q with ETag %q", o.path, o.inm, o.etag)
		case o.status == 200 && o.inm != "" && o.inm == o.etag:
			err = fmt.Errorf("%s answered 200 to a matching If-None-Match %q", o.path, o.inm)
		}
		if err != nil {
			break
		}
	}
	return r.check("etag304", err)
}

// reconFromSnapshot measures ‖X−X̂‖_F/‖X‖_F over everything a served
// tenant absorbed, by decoding its snapshot: the served /error reports
// the error only on the level-1 sample grid.
func (r *run) reconFromSnapshot(snap []byte) error {
	inc, err := core.DecodeIncremental(bytes.NewReader(snap))
	if err := r.op(err); err != nil {
		return err
	}
	r.reconRelErr = inc.ReconError() / inc.Raw().FrobNorm()
	return nil
}

func positive(v int, what string) error {
	if v <= 0 {
		return fmt.Errorf("%s = %d, want > 0", what, v)
	}
	return nil
}

func atMost(v, limit float64, what string) error {
	if !(v <= limit) {
		return fmt.Errorf("%s = %g, want ≤ %g", what, v, limit)
	}
	return nil
}
