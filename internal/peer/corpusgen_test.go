package peer

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFuzzCorpus regenerates the checked-in FuzzPeerFrame seed
// corpus under testdata/fuzz/FuzzPeerFrame — the same seeds FuzzPeerFrame
// adds in code, persisted so `go test` replays them even when the fuzz
// engine is not invoked. Run with WRITE_CORPUS=1 after changing the
// frame codec.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_CORPUS") == "" {
		t.Skip("set WRITE_CORPUS=1 to regenerate testdata/fuzz/FuzzPeerFrame")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzPeerFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, s := range peerFrameSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
