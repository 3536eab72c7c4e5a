package main

import (
	"encoding/json"
	"math"
	"time"
)

// The host probe tracks how fast the machine is running right now. On a
// shared host the same binary runs up to ~2× slower for minutes at a time
// while neighbours load the memory system, which no amount of sampling
// inside a 20 s run averages out. Each run therefore times a fixed piece
// of work, owned by the benchmark and independent of the code under test,
// between its rounds and every probeEvery batches of a long round, and
// divides its times by the host factor, the median probe time over the
// reference below (rates it multiplies). The unscaled values and the factor are in the
// record's extras. A factor per window, from the samples at its two
// ends, follows the host no better: over one window the probe's own
// noise is as large as the change in the host's speed.
//
// The probe mixes the three kinds of work the workloads' time goes to:
// arithmetic, streaming memory beyond the private caches, and decoding a
// JSON ingest body. Its time is their geometric mean.

// refProbeMs is the probe's time on the host the baseline was recorded
// on (Intel Xeon, 2 vCPUs) in its fast phase.
const refProbeMs = 2.8

// probesPerSample is how many times the probe runs at each sample: every
// round boundary, and every probeEvery batches within a long round.
const probesPerSample = 5

// probeEvery is how many consecutive measured batches a long round runs
// between two samples of the probe.
const probeEvery = 100

var (
	probeBuf  = make([]float64, 4<<20) // 32 MiB, well past L2
	probeBody = func() []byte {
		rows := make([][]float64, 200)
		for i := range rows {
			rows[i] = make([]float64, 40)
			for j := range rows[i] {
				rows[i][j] = 20 + float64((i*40+j)%997)*0.0123456789
			}
		}
		b, err := json.Marshal(map[string][][]float64{"data": rows})
		if err != nil {
			panic(err)
		}
		return b
	}()
	probeSink float64
)

// probeHost times the probe once, in milliseconds.
func probeHost() float64 {
	since := func(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

	t := time.Now()
	x := 1.0
	for i := 0; i < 2_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	alu := since(t)

	t = time.Now()
	s := 0.0
	for _, v := range probeBuf {
		s += v
	}
	mem := since(t)

	t = time.Now()
	var b struct{ Data [][]float64 }
	err := json.Unmarshal(probeBody, &b)
	dec := since(t)
	if err != nil {
		panic(err) // the body is the benchmark's own constant
	}

	probeSink = x + s + b.Data[0][0]
	return math.Cbrt(alu * mem * dec)
}
