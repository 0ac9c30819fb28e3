package plan

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/sample"
)

func compileTestPlan(t *testing.T) *Plan {
	t.Helper()
	g := testGraph(t)
	targets := testTargets(300)
	smp := &sample.NodeWise{Fanouts: []int{5, 3}}
	key := KeyFor("test-ds", false, smp, 64, 9, 2, true, targets)
	pl, err := Compile(g, smp, key, targets)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func saveTestPlan(t *testing.T, pl *Plan) (path string, data []byte) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "p.plan")
	if err := SaveFile(path, pl); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestV2RejectsEveryBitFlip: the CRC-64 footer must catch a single bit
// flip anywhere — header, body, or the footer itself.
func TestV2RejectsEveryBitFlip(t *testing.T) {
	pl := compileTestPlan(t)
	_, data := saveTestPlan(t, pl)
	bad := filepath.Join(t.TempDir(), "bad.plan")
	// One flipped byte per region: magic, early body, mid body, last body
	// byte, and each half of the footer.
	positions := []int{0, 9, len(data) / 2, len(data) - 9, len(data) - 8, len(data) - 1}
	for _, pos := range positions {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(bad); err == nil {
			t.Errorf("bit flip at byte %d of %d loaded without error", pos, len(data))
		}
	}
}

// TestV2RejectsTruncation: any prefix of a v2 file fails cleanly (the
// checksum cannot match a shortened body).
func TestV2RejectsTruncation(t *testing.T) {
	pl := compileTestPlan(t)
	_, data := saveTestPlan(t, pl)
	bad := filepath.Join(t.TempDir(), "trunc.plan")
	for _, n := range []int{0, 4, 8, 12, len(data) / 3, len(data) - 8, len(data) - 1} {
		if err := os.WriteFile(bad, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(bad); err == nil {
			t.Errorf("plan truncated to %d of %d bytes loaded without error", n, len(data))
		}
	}
	// Trailing garbage is corruption too, not slack.
	if err := os.WriteFile(bad, append(append([]byte(nil), data...), 0xAA), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Error("plan with trailing garbage loaded without error")
	}
}

// TestRefusesLegacyV1: nothing writes the footer-less GNAVPLN1 layout,
// so a file in it is refused as bad magic instead of parsed without an
// integrity check.
func TestRefusesLegacyV1(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("GNAVPLN1")
	if err := writePlanBody(&buf, compileTestPlan(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.plan")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("GNAVPLN1 plan: error %v, want bad magic", err)
	}
}

// TestSaveCleansUpTmpOnRenameFailure: a failed rename (here: the target
// is a directory) must not strand the .tmp file.
func TestSaveCleansUpTmpOnRenameFailure(t *testing.T) {
	pl := compileTestPlan(t)
	dir := t.TempDir()
	target := filepath.Join(dir, "is-a-dir")
	if err := os.MkdirAll(filepath.Join(target, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(target, pl); err == nil {
		t.Fatal("SaveFile onto a non-empty directory succeeded")
	}
	if _, err := os.Stat(target + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file stranded after failed rename: stat err = %v", err)
	}
}

// TestChaosPlanCorruptionCaughtByChecksum: an armed Corrupt fault flips
// payload bits after the CRC is computed — the write succeeds (the
// corruption is silent at save time, like real media damage), and the
// load must refuse the file.
func TestChaosPlanCorruptionCaughtByChecksum(t *testing.T) {
	defer faultinject.Reset()
	pl := compileTestPlan(t)
	path := filepath.Join(t.TempDir(), "corrupt.plan")
	faultinject.Arm(faultinject.PlanSave, faultinject.Spec{Kind: faultinject.Corrupt, Seed: 3, Bits: 2, Count: 1})
	if err := SaveFile(path, pl); err != nil {
		t.Fatalf("corrupt-armed save failed at write time: %v", err)
	}
	faultinject.Reset()
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("silently corrupted plan loaded without error")
	}
	if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corruption surfaced as the wrong error: %v", err)
	}
}

// TestChaosPlanIOInjection: Error-kind faults at the save and load
// points surface as clean wrapped errors.
func TestChaosPlanIOInjection(t *testing.T) {
	defer faultinject.Reset()
	pl := compileTestPlan(t)
	path := filepath.Join(t.TempDir(), "p.plan")
	faultinject.Arm(faultinject.PlanSave, faultinject.Spec{Kind: faultinject.Error, Count: 1})
	if err := SaveFile(path, pl); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("save returned %v, want injected error", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("injected save failure stranded a tmp file")
	}
	faultinject.Reset()
	if err := SaveFile(path, pl); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.PlanLoad, faultinject.Spec{Kind: faultinject.Error, Count: 1})
	if _, err := LoadFile(path); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("load returned %v, want injected error", err)
	}
	faultinject.Reset()
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("plan unloadable after injected faults cleared: %v", err)
	}
}
