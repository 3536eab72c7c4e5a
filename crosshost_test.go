package imrdmd

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"imrdmd/internal/mat"
)

// crossHostOut names the file a re-executed child of
// TestSnapshotBitsMatchAcrossTiers writes its snapshot to.
const crossHostOut = "IMRDMD_CROSSHOST_OUT"

// crossHostSnapshot streams a P=300 tenant (512 seed columns, then eight
// 64-column batches) and returns its snapshot bytes. P exceeds the GEMM
// depth block on every tier, so the long products are split into depth
// chunks and their last bits depend on the chunk size.
func crossHostSnapshot(t *testing.T) []byte {
	t.Helper()
	data := snapshotSeries(300, 1024)
	a, err := New(Options{DT: 1, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InitialFit(data.slice(0, 512)); err != nil {
		t.Fatal(err)
	}
	for c := 512; c < 1024; c += 64 {
		if _, err := a.PartialFit(data.slice(c, c+64)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotBitsMatchAcrossTiers pins cross-host reproducibility: a
// tenant streamed on the AVX-512 tier must snapshot the same bytes as one
// streamed on the AVX2 tier, so a snapshot moved between an AVX-512 host
// and an AVX2 host continues bit-compatibly. On an AVX-512 host the test
// re-executes its own binary with IMRDMD_GEMM_KERNEL=avx2 (the tier is
// fixed at package init) and compares the two snapshots. Other tiers skip.
func TestSnapshotBitsMatchAcrossTiers(t *testing.T) {
	if out := os.Getenv(crossHostOut); out != "" {
		if err := os.WriteFile(out, crossHostSnapshot(t), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if mat.Kernel().Tier != "avx512" {
		t.Skipf("tier %s: needs an AVX-512 host to compare against AVX2", mat.Kernel().Tier)
	}
	wide := crossHostSnapshot(t)

	out := filepath.Join(t.TempDir(), "avx2.snap")
	cmd := exec.Command(os.Args[0], "-test.run=^TestSnapshotBitsMatchAcrossTiers$", "-test.count=1")
	cmd.Env = append(os.Environ(), "IMRDMD_GEMM_KERNEL=avx2", crossHostOut+"="+out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("avx2 child: %v\n%s", err, msg)
	}
	narrow, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wide, narrow) {
		first := 0
		for first < min(len(wide), len(narrow)) && wide[first] == narrow[first] {
			first++
		}
		t.Fatalf("snapshot bytes differ between tiers: avx512 %d bytes, avx2 %d bytes, first difference at byte %d",
			len(wide), len(narrow), first)
	}
}
