package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"imrdmd/internal/codec"
	"imrdmd/internal/mat"
)

// snapshotHeaderLen is the codec's magic ("IMRDSNAP") plus the version
// word; a CRC-32 word trails every stream.
const snapshotHeaderLen = 12

// frameSnapshot wraps a fuzzed body in a valid header at codec.Version
// and a CRC-32 trailer, so mutations reach the structural decoder instead
// of dying at the magic, version or checksum checks.
func frameSnapshot(body []byte) []byte {
	buf := make([]byte, 0, snapshotHeaderLen+len(body)+4)
	buf = append(buf, "IMRDSNAP"...)
	buf = binary.LittleEndian.AppendUint32(buf, codec.Version)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// unframeSnapshot is frameSnapshot's inverse: the body between header
// and trailer.
func unframeSnapshot(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	if len(raw) < snapshotHeaderLen+4 {
		tb.Fatalf("snapshot of %d bytes has no room for header and trailer", len(raw))
	}
	return raw[snapshotHeaderLen : len(raw)-4]
}

// withPrecisionSlot returns raw with the options' precision slot — the
// first length-prefixed string equal to from — rewritten to hold to, and
// the stream re-framed so its checksum stays valid.
func withPrecisionSlot(tb testing.TB, raw []byte, from, to string) []byte {
	tb.Helper()
	body := unframeSnapshot(tb, raw)
	field := func(s string) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, uint64(len(s))), s...)
	}
	i := bytes.Index(body, field(from))
	if i < 0 {
		tb.Fatalf("no %q precision slot in snapshot", from)
	}
	out := append(append(append([]byte(nil), body[:i]...), field(to)...), body[i+len(field(from)):]...)
	return frameSnapshot(out)
}

// FuzzDecodeIncremental: a checksum-valid snapshot body either fails to
// decode with an error, or decodes into an analyzer that can be viewed
// and absorb one more batch without panicking. Every body is framed at
// codec.Version, the one version the reader accepts. Seeds: an 8-sensor
// snapshot, the golden fixture (TestGoldenSnapshotRestores), and three
// variants that must fail as corrupt — the snapshot with a "float16"
// and with a "mixed" precision slot, and the fixture with level-1 kind
// tag 1.
func FuzzDecodeIncremental(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	data, _ := multiscale(rng, 8, 160, 1, 0.1)
	inc := NewIncremental(Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, BlockColumns: 4})
	if err := inc.InitialFit(data.ColSlice(0, 96)); err != nil {
		f.Fatal(err)
	}
	if _, err := inc.PartialFit(data.ColSlice(96, 160)); err != nil {
		f.Fatal(err)
	}
	var cur bytes.Buffer
	if err := inc.Snapshot(&cur); err != nil {
		f.Fatal(err)
	}
	golden := readGolden(f)
	for _, raw := range [][]byte{cur.Bytes(), golden} {
		if _, err := DecodeIncrementalOn(bytes.NewReader(raw), 1); err != nil {
			f.Fatalf("seed does not decode: %v", err)
		}
		f.Add(unframeSnapshot(f, raw))
	}
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"float16 precision slot", withPrecisionSlot(f, cur.Bytes(), "float64", "float16")},
		{"mixed precision slot", withPrecisionSlot(f, cur.Bytes(), "float64", "mixed")},
		{"level-1 kind 1", withKindTag(f, golden, 1)},
	} {
		if _, err := DecodeIncrementalOn(bytes.NewReader(c.raw), 1); !errors.Is(err, codec.ErrCorrupt) {
			f.Fatalf("%s: want ErrCorrupt, got %v", c.name, err)
		}
		f.Add(unframeSnapshot(f, c.raw))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeIncrementalOn(bytes.NewReader(frameSnapshot(body)), 1)
		if err != nil {
			return
		}
		_ = got.View()
		batch := mat.NewDense(got.Sensors(), 4)
		for i := range batch.Data {
			batch.Data[i] = float64(i%7) - 3
		}
		_, _ = got.PartialFit(batch)
	})
}
