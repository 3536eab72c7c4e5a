package core_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
	"testing/iotest"

	"imrdmd/internal/bench"
	"imrdmd/internal/codec"
	"imrdmd/internal/core"
)

// lenless hides a source's Len, as a request body does.
type lenless struct{ r io.Reader }

func (l lenless) Read(p []byte) (int, error) { return l.r.Read(p) }

// splitReads hands out b in reads that end at the given offsets, then
// at its end.
type splitReads struct {
	b    []byte
	at   int
	cuts []int
}

func (s *splitReads) Read(p []byte) (int, error) {
	if s.at == len(s.b) {
		return 0, io.EOF
	}
	end := len(s.b)
	for _, c := range s.cuts {
		if c > s.at {
			end = min(end, c)
			break
		}
	}
	n := copy(p, s.b[s.at:end])
	s.at += n
	return n, nil
}

// oddCuts returns read boundaries for an n-byte stream: reads of odd
// sizes cycling through 1, 7, 4093 and 20011 bytes until the trailer,
// then boundaries three and one bytes before the end, so the block
// runs dry and refills inside the four-byte trailer.
func oddCuts(n int) []int {
	var cuts []int
	sizes := []int{1, 7, 4093, 20011}
	for at, k := 0, 0; ; k++ {
		at += sizes[k%len(sizes)]
		if at >= n-4 {
			break
		}
		cuts = append(cuts, at)
	}
	return append(cuts, n-3, n-1)
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/current_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenSnapshotShortReads: the golden fixture restores to the
// writer's View() digest whatever read sizes its source hands it out in:
// one byte at a time, half of each request, the last bytes together with
// io.EOF, and odd read sizes that put a refill inside the trailer.
func TestGoldenSnapshotShortReads(t *testing.T) {
	raw := readGolden(t)
	for name, src := range map[string]io.Reader{
		"OneByteReader": iotest.OneByteReader(bytes.NewReader(raw)),
		"HalfReader":    iotest.HalfReader(bytes.NewReader(raw)),
		"DataErrReader": iotest.DataErrReader(lenless{bytes.NewReader(raw)}),
		"odd sizes":     &splitReads{b: raw, cuts: oddCuts(len(raw))},
	} {
		got, err := core.DecodeIncremental(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := viewDigest(got.View()); d != goldenViewDigest {
			t.Fatalf("%s: restored View() digest %s, want %s", name, d, goldenViewDigest)
		}
	}
}

// countingReader counts the Read calls made on a source without a Len.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestRestoreReadsPerBlock: restoring the golden fixture from a source
// without a length makes at most ⌈size/64 KiB⌉+2 Read calls — one per
// block refill, not one per field.
func TestRestoreReadsPerBlock(t *testing.T) {
	raw := readGolden(t)
	src := &countingReader{r: bytes.NewReader(raw)}
	if _, err := core.DecodeIncremental(src); err != nil {
		t.Fatal(err)
	}
	const block = 64 << 10
	if limit := (len(raw)+block-1)/block + 2; src.reads > limit {
		t.Fatalf("restoring %d bytes made %d reads, want at most %d", len(raw), src.reads, limit)
	}
	t.Logf("%d bytes restored in %d reads", len(raw), src.reads)
}

// TestRestoreIgnoresBytesAfterTrailer: the block reader may read past
// the trailer, but it decodes nothing there. The golden fixture followed
// by junk — a few bytes, or more than a block — restores, and snapshots
// back to the fixture byte for byte.
func TestRestoreIgnoresBytesAfterTrailer(t *testing.T) {
	raw := readGolden(t)
	for _, junk := range [][]byte{[]byte("junk"), bytes.Repeat([]byte{0xff}, 70_000)} {
		for _, src := range []io.Reader{
			bytes.NewReader(append(append([]byte(nil), raw...), junk...)),
			lenless{bytes.NewReader(append(append([]byte(nil), raw...), junk...))},
		} {
			got, err := core.DecodeIncremental(src)
			if err != nil {
				t.Fatalf("%d junk bytes: %v", len(junk), err)
			}
			var again bytes.Buffer
			if err := got.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), raw) {
				t.Fatalf("%d junk bytes: re-snapshot differs from the fixture", len(junk))
			}
		}
	}
}

// TestSnapshotTruncatedEveryOffset: a small snapshot — P=4 with a cold
// tier, drift and amplitude windows — cut at every offset fails to
// restore with io.ErrUnexpectedEOF or codec.ErrChecksum (or, inside the
// header, codec.ErrMagic or codec.ErrVersion), from a source with a
// length and from one without. None restores and none panics.
func TestSnapshotTruncatedEveryOffset(t *testing.T) {
	data := bench.SCLogData(4, 320, 1)
	inc := core.NewIncremental(core.Options{
		DT: 20, MaxLevels: 2, MaxCycles: 2, UseSVHT: true, BlockColumns: 4,
		DriftWindow: 16, AmplitudeWindow: 16, ColdHorizon: 32,
	})
	if err := inc.InitialFit(data.ColSlice(0, 160)); err != nil {
		t.Fatal(err)
	}
	for c := 160; c < 320; c += 80 {
		if _, err := inc.PartialFit(data.ColSlice(c, c+80)); err != nil {
			t.Fatal(err)
		}
	}
	if inc.MemStats().ColdSteps == 0 {
		t.Fatal("fixture stream demoted no columns")
	}
	var buf bytes.Buffer
	if err := inc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		for _, src := range []io.Reader{bytes.NewReader(full[:cut]), lenless{bytes.NewReader(full[:cut])}} {
			_, err := core.DecodeIncremental(src)
			switch {
			case err == nil:
				t.Fatalf("snapshot cut at %d of %d bytes restored", cut, len(full))
			case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, codec.ErrChecksum):
			case cut < 12 && (errors.Is(err, codec.ErrMagic) || errors.Is(err, codec.ErrVersion)):
			default:
				t.Fatalf("snapshot cut at %d of %d bytes: %v", cut, len(full), err)
			}
		}
	}
	t.Logf("%d-byte snapshot: every cut fails cleanly", len(full))
}
