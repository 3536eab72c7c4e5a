package imrdmd

import (
	"strings"
	"testing"
)

// mustNew fails the test on invalid options; the shared constructor for
// every analyzer test in this package.
func mustNew(t testing.TB, opts Options) *Analyzer {
	t.Helper()
	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestOptionsValidation is the satellite table test: New must reject
// invalid knobs with a descriptive error naming the offending field, and
// accept every valid combination including the zero value.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string // substring of the error; empty = must succeed
	}{
		{"zero value", Options{}, ""},
		{"typical streaming config", Options{DT: 20, MaxLevels: 6, UseSVHT: true, Workers: 4, BlockColumns: 8}, ""},
		{"explicit float64", Options{Precision: PrecisionFloat64}, ""},
		{"mixed tier", Options{Precision: PrecisionMixed}, ""},
		{"mixed with knobs", Options{Precision: "mixed", Workers: 2, BlockColumns: 1}, ""},
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"very negative workers", Options{Workers: -100}, "Workers"},
		{"negative block columns", Options{BlockColumns: -8}, "BlockColumns"},
		{"unknown precision", Options{Precision: "float16"}, "Precision"},
		{"misspelled precision", Options{Precision: "Mixed"}, "Precision"},
		{"both invalid reports first", Options{Workers: -1, Precision: "nope"}, "Workers"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := New(c.opts)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				if a == nil {
					t.Fatal("nil analyzer for valid options")
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid options accepted: %+v", c.opts)
			}
			if a != nil {
				t.Fatal("non-nil analyzer returned alongside error")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not name the offending field %q", err, c.wantErr)
			}
		})
	}
}

// TestMixedPrecisionPublicPipeline smoke-tests the Precision knob through
// the public API: a mixed-tier analyzer streams the same data as a
// float64 one and lands on the same mode count and an equivalent
// reconstruction error.
func TestMixedPrecisionPublicPipeline(t *testing.T) {
	s := syntheticTemps(11, 16, 512, []int{2})
	run := func(precision string) (int, float64) {
		a := mustNew(t, Options{DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true, Precision: precision})
		if err := a.InitialFit(s.Slice(0, 384)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.PartialFit(s.Slice(384, 512)); err != nil {
			t.Fatal(err)
		}
		return a.NumModes(), a.ReconstructionError()
	}
	modes64, err64 := run(PrecisionFloat64)
	modesMixed, errMixed := run(PrecisionMixed)
	if modesMixed != modes64 {
		t.Fatalf("mixed kept %d modes, float64 kept %d", modesMixed, modes64)
	}
	if errMixed > err64*1.01 {
		t.Fatalf("mixed reconstruction error %.6g vs float64 %.6g", errMixed, err64)
	}
}
