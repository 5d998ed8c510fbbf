package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunProducesArtifact(t *testing.T) {
	art, _, err := Env{}.Run("e14", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Exp != "e14" || art.Seed != 7 {
		t.Fatalf("identity fields: %+v", art)
	}
	if art.Model.Clusters == 0 || art.Model.Rounds == 0 || art.Model.TotalWords == 0 {
		t.Fatalf("model stats not collected: %+v", art.Model)
	}
	if art.Table == nil || len(art.Table.Rows) == 0 {
		t.Fatal("table missing")
	}
}

func TestArtifactWriteFileRoundTrips(t *testing.T) {
	art, _, err := Env{}.Run("e14", 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := art.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_e14.json" {
		t.Fatalf("artifact name %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Exp != art.Exp || back.Model != art.Model || len(back.Table.Rows) != len(art.Table.Rows) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, art)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, _, err := (Env{}).Run("nope", 1); err == nil {
		t.Fatal("unknown id accepted")
	}
}
