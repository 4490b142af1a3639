package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

// TestFuzzCorpus checks the seed corpora under testdata/fuzz/<FuzzTarget>/
// as golden files: one file per honest protocol encoding, harvested from
// transcript-recorded honest runs at the same instance parameters the fuzz
// targets in fuzz_test.go use. Honest encodings drive the fuzzer through
// the deep, fully valid decode paths that random bytes almost never reach,
// and pinning them here pins every protocol's honest message bytes. The
// test rebuilds each seed in memory and fails if a checked-in file is
// missing or differs; run it with WRITE_CORPUS=1 to rewrite the files.
func TestFuzzCorpus(t *testing.T) {
	write := os.Getenv("WRITE_CORPUS") != ""
	rng := rand.New(rand.NewSource(99))

	// Symmetric 14-vertex graph (doubled 6-vertex asymmetric core), shared
	// by the sym and lcp families.
	base, err := graph.RandomAsymmetricConnected(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	sym := graph.Doubled(base, 0)
	if sym.N() != 14 {
		t.Fatalf("symmetric instance has %d vertices, want 14", sym.N())
	}

	dmam, err := NewSymDMAM(14, 1)
	if err != nil {
		t.Fatal(err)
	}
	dam, err := NewSymDAM(14, 1)
	if err != nil {
		t.Fatal(err)
	}
	dsym, err := NewDSymDAM(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dsymG := graph.DSymGraph(graph.ConnectedGNP(4, 0.5, rng), 1)
	gni, err := NewGNIDAMAM(6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	gnid, err := NewGNIDAM(6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	gng, err := NewGNIGeneral(6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	gniYes, err := NewGNIYesInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	c6 := graph.Cycle(6)
	c6Shuffled, _ := c6.Shuffle(rng)
	symLCP, err := NewSymLCP(14)
	if err != nil {
		t.Fatal(err)
	}
	gniLCP14, err := NewGNILCP(14)
	if err != nil {
		t.Fatal(err)
	}
	lcpYes, err := NewGNIYesInstance(14, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Drawn last so that every seed above keeps its bytes.
	markedG, marks := markedEquivInstance(t, rng)
	marked, err := NewMarkedGNI(markedG.N(), 6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	markInputs, err := EncodeMarks(marks)
	if err != nil {
		t.Fatal(err)
	}

	harvest := func(target, label string, spec *network.Spec, g *graph.Graph, inputs []wire.Message, p network.Prover) {
		res, err := network.Run(spec, g, inputs, p, network.Options{Seed: 5, RecordTranscript: true})
		if err != nil {
			t.Fatalf("%s/%s: %v", target, label, err)
		}
		for ri, round := range res.Transcript.Rounds {
			if round.Kind != network.Merlin {
				continue
			}
			// Two distinct receivers per Merlin round cover both broadcast
			// and per-node-distinct fields.
			for _, v := range []int{0, len(round.PerNode) - 1} {
				checkSeed(t, write, target, fmt.Sprintf("%s-r%d-v%d", label, ri, v), round.PerNode[v])
			}
		}
	}

	harvest("FuzzSymDecoders", "sym-dmam", dmam.Spec(), sym, nil, dmam.HonestProver())
	harvest("FuzzSymDecoders", "sym-dam", dam.Spec(), sym, nil, dam.HonestProver())
	harvest("FuzzDSymDecoder", "dsym-dam", dsym.Spec(), dsymG, nil, dsym.HonestProver())
	harvest("FuzzGNIDecoders", "gni-damam", gni.Spec(), gniYes.G0, EncodeGNIInputs(gniYes.G1), gni.HonestProver())
	harvest("FuzzGNIDecoders", "gni-dam", gnid.Spec(), gniYes.G0, EncodeGNIInputs(gniYes.G1), gnid.HonestProver())
	harvest("FuzzGNIDecoders", "gni-general", gng.Spec(), c6, EncodeGNIInputs(c6Shuffled), gng.HonestProver())
	harvest("FuzzGNIDecoders", "gni-marked", marked.Spec(), markedG, markInputs, marked.HonestProver())
	harvest("FuzzLCPDecoders", "sym-lcp", symLCP.Spec(), sym, nil, symLCP.HonestProver())
	harvest("FuzzLCPDecoders", "gni-lcp", gniLCP14.Spec(), lcpYes.G0, EncodeGNIInputs(lcpYes.G1), gniLCP14.HonestProver())
}

// checkSeed compares one corpus entry, in the `go test fuzz v1` format
// matching the fuzz targets' (data []byte, bits int) signature, with its
// checked-in file, or writes the file when write is set.
func checkSeed(t *testing.T, write bool, target, name string, m wire.Message) {
	t.Helper()
	path := filepath.Join("testdata", "fuzz", target, name)
	body := "go test fuzz v1\n" +
		"[]byte(" + strconv.Quote(string(m.Data)) + ")\n" +
		fmt.Sprintf("int(%d)\n", m.Bits)
	if write {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with WRITE_CORPUS=1)", err)
	}
	if string(got) != body {
		t.Fatalf("%s differs from the honest encoding (regenerate with WRITE_CORPUS=1 if the codec change is intended)", path)
	}
}
