package archive

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/enginetest"
	"repro/internal/fsck"
	"repro/internal/restore"
)

// buildStore runs a DeFrag engine over a few generations and returns its
// store, recipes and original stream bytes.
func buildStore(t *testing.T, storeData bool) (*core.Engine, []*chunk.Recipe, [][]byte) {
	t.Helper()
	cfg := core.DefaultConfig(64 << 20)
	cfg.StoreData = storeData
	eng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens := enginetest.RunGenerations(t, eng, enginetest.SmallConfig(91), 4)
	var recipes []*chunk.Recipe
	var datas [][]byte
	for _, g := range gens {
		recipes = append(recipes, g.Recipe)
		datas = append(datas, g.Data)
	}
	return eng, recipes, datas
}

func TestExportImportRoundTrip(t *testing.T) {
	eng, recipes, datas := buildStore(t, true)
	dir := t.TempDir()
	if err := Export(context.Background(), dir, eng.Containers(), recipes); err != nil {
		t.Fatal(err)
	}

	store, loaded, err := Import(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(recipes) {
		t.Fatalf("loaded %d recipes, want %d", len(loaded), len(recipes))
	}
	if store.NumContainers() != eng.Containers().NumContainers() {
		t.Fatalf("containers %d != %d", store.NumContainers(), eng.Containers().NumContainers())
	}
	// Every original backup restores bit-exactly from the imported store.
	rcfg := restore.DefaultConfig()
	rcfg.Verify = true
	for i, rec := range loaded {
		if err := restore.VerifyAgainst(context.Background(), store, rec, rcfg, datas[i]); err != nil {
			t.Fatalf("backup %d from archive: %v", i, err)
		}
	}
	// And the imported store is internally consistent.
	rep, err := fsck.Check(context.Background(), store, nil, loaded, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("imported store inconsistent: %v", rep.Problems)
	}
}

func TestExportImportMetadataOnly(t *testing.T) {
	eng, recipes, _ := buildStore(t, false)
	dir := t.TempDir()
	if err := Export(context.Background(), dir, eng.Containers(), recipes); err != nil {
		t.Fatal(err)
	}
	store, loaded, err := Import(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	// Metadata-only: restores run (timing) but cannot verify content.
	if _, err := restore.RunPipelined(context.Background(), store, loaded[0], restore.DefaultConfig(), nil); err != nil {
		t.Fatal(err)
	}
	rcfg := restore.DefaultConfig()
	rcfg.Verify = true
	if _, err := restore.RunPipelined(context.Background(), store, loaded[0], rcfg, nil); err == nil {
		t.Fatal("verify must fail on a metadata-only archive")
	}
}

func TestImportMissingManifest(t *testing.T) {
	if _, _, err := Import(context.Background(), t.TempDir()); err == nil {
		t.Fatal("missing manifest must error")
	}
}

func TestImportCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{nope"), 0o644)
	if _, _, err := Import(context.Background(), dir); err == nil {
		t.Fatal("corrupt manifest must error")
	}
}

func TestImportVersionCheck(t *testing.T) {
	eng, recipes, _ := buildStore(t, false)
	dir := t.TempDir()
	if err := Export(context.Background(), dir, eng.Containers(), recipes); err != nil {
		t.Fatal(err)
	}
	blob, _ := os.ReadFile(filepath.Join(dir, "manifest.json"))
	blob = bytes.Replace(blob, []byte(`"version": 1`), []byte(`"version": 99`), 1)
	os.WriteFile(filepath.Join(dir, "manifest.json"), blob, 0o644)
	if _, _, err := Import(context.Background(), dir); err == nil {
		t.Fatal("future version must be rejected")
	}
}

func TestImportDetectsTruncatedData(t *testing.T) {
	eng, recipes, _ := buildStore(t, true)
	dir := t.TempDir()
	if err := Export(context.Background(), dir, eng.Containers(), recipes); err != nil {
		t.Fatal(err)
	}
	// Truncate one container's data file.
	path := containerPath(dir, 0, "data")
	blob, _ := os.ReadFile(path)
	os.WriteFile(path, blob[:len(blob)/2], 0o644)
	if _, _, err := Import(context.Background(), dir); err == nil {
		t.Fatal("truncated container data must be detected")
	}
}

func TestImportDetectsMetaMismatch(t *testing.T) {
	eng, recipes, _ := buildStore(t, false)
	dir := t.TempDir()
	if err := Export(context.Background(), dir, eng.Containers(), recipes); err != nil {
		t.Fatal(err)
	}
	// Truncate a meta file after its count header: readMeta fails.
	path := containerPath(dir, 0, "meta")
	blob, _ := os.ReadFile(path)
	os.WriteFile(path, blob[:8], 0o644)
	if _, _, err := Import(context.Background(), dir); err == nil {
		t.Fatal("corrupt metadata must be detected")
	}
}
