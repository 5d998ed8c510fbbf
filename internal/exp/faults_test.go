package exp

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestE20ArtifactCarriesFaultMetrics: the E20 artifact must expose the
// fault-tolerance metrics in its model stats (the wire format the CI smoke
// step checks).
func TestE20ArtifactCarriesFaultMetrics(t *testing.T) {
	art, _, err := Env{}.Run("e20", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Model.Crashes == 0 || art.Model.RecoveryRounds == 0 || art.Model.ReplicationWords == 0 {
		t.Fatalf("fault metrics missing from model stats: %+v", art.Model)
	}
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"crashes"`, `"recovery_rounds"`, `"replication_words"`, `"checkpoints"`, `"makespan"`} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("artifact JSON lacks %s", field)
		}
	}
}

// TestSetFaultsOverride: Env.Faults rebuilds an experiment under faults,
// tags its artifact, and renames the file so the committed baseline is
// never clobbered.
func TestSetFaultsOverride(t *testing.T) {
	if err := (Env{Faults: "bogus"}).Validate(); err == nil {
		t.Fatal("bad fault spec accepted")
	}
	if _, _, err := (Env{Faults: "bogus"}).Run("e9", 7); err == nil {
		t.Fatal("Run accepted a bad fault spec")
	}
	art, _, err := Env{Faults: "ckpt:4+rate:0.002"}.Run("e9", 7)
	if err != nil {
		t.Fatal(err)
	}
	if art.Faults != "ckpt:4+rate:0.002" {
		t.Fatalf("artifact faults tag %q", art.Faults)
	}
	if art.Model.Checkpoints == 0 {
		t.Fatalf("override did not reach the clusters: %+v", art.Model)
	}
	dir := t.TempDir()
	path, err := art.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(path, "@faults=") {
		t.Fatalf("faulted artifact path %q lacks the @faults= tag", path)
	}
}
