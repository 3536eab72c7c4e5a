package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"testing"

	"imrdmd/internal/codec"
	"imrdmd/internal/mat"
)

// snapshotHeaderLen is the codec's magic ("IMRDSNAP") plus the version
// word; a CRC-32 word trails every stream.
const snapshotHeaderLen = 12

// frameSnapshot wraps a fuzzed body in a valid header and CRC-32 trailer,
// so mutations reach the structural decoder instead of dying at the
// magic, version or checksum checks.
func frameSnapshot(version uint32, body []byte) []byte {
	buf := make([]byte, 0, snapshotHeaderLen+len(body)+4)
	buf = append(buf, "IMRDSNAP"...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// fuzzVersion maps the fuzzed version byte onto a format the reader
// accepts: 1 selects the version-1 layout, anything else the current one.
func fuzzVersion(b uint8) uint32 {
	if b == 1 {
		return 1
	}
	return codec.Version
}

// unframeSnapshot is frameSnapshot's inverse for the seed corpus.
func unframeSnapshot(tb testing.TB, raw []byte) (uint8, []byte) {
	tb.Helper()
	if len(raw) < snapshotHeaderLen+4 {
		tb.Fatalf("snapshot of %d bytes has no room for header and trailer", len(raw))
	}
	return uint8(binary.LittleEndian.Uint32(raw[8:snapshotHeaderLen])), raw[snapshotHeaderLen : len(raw)-4]
}

// withPrecisionSlot returns raw with the options' precision slot — the
// first length-prefixed string equal to from — rewritten to hold to, and
// the stream re-framed so its checksum stays valid.
func withPrecisionSlot(tb testing.TB, raw []byte, from, to string) []byte {
	tb.Helper()
	version, body := unframeSnapshot(tb, raw)
	field := func(s string) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, uint64(len(s))), s...)
	}
	i := bytes.Index(body, field(from))
	if i < 0 {
		tb.Fatalf("no %q precision slot in snapshot", from)
	}
	out := append(append(append([]byte(nil), body[:i]...), field(to)...), body[i+len(field(from)):]...)
	return frameSnapshot(uint32(version), out)
}

// FuzzDecodeIncremental: a checksum-valid snapshot body either fails to
// decode with an error, or decodes into an analyzer that can be viewed
// and absorb one more batch without panicking. Seeds: an 8-sensor
// snapshot in the current layout, the same state as a version-1 stream,
// the row-sharded (kind-1) and mixed-precision fixtures, and the current
// snapshot with an unknown precision slot, which must fail as corrupt.
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
	legacy, err := os.ReadFile("testdata/sharded_v2.snap")
	if err != nil {
		f.Fatal(err)
	}
	mixed, err := os.ReadFile("testdata/mixed_v2.snap")
	if err != nil {
		f.Fatal(err)
	}
	for _, raw := range [][]byte{cur.Bytes(), encodeV1(f, inc), legacy, mixed} {
		version, body := unframeSnapshot(f, raw)
		if _, err := DecodeIncrementalOn(bytes.NewReader(frameSnapshot(fuzzVersion(version), body)), 1); err != nil {
			f.Fatalf("seed (version %d) does not decode: %v", version, err)
		}
		f.Add(version, body)
	}
	unknown := withPrecisionSlot(f, cur.Bytes(), "float64", "float16")
	if _, err := DecodeIncrementalOn(bytes.NewReader(unknown), 1); !errors.Is(err, codec.ErrCorrupt) {
		f.Fatalf("float16 precision slot: want ErrCorrupt, got %v", err)
	}
	version, body := unframeSnapshot(f, unknown)
	f.Add(version, body)

	f.Fuzz(func(t *testing.T, version uint8, body []byte) {
		got, err := DecodeIncrementalOn(bytes.NewReader(frameSnapshot(fuzzVersion(version), body)), 1)
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
