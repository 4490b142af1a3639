package network

import (
	"math/big"
	"sync/atomic"
	"testing"

	"dip/internal/graph"
	"dip/internal/wire"
)

// memoOwner and otherOwner name two memoized computations.
var memoOwner, otherOwner int

func TestMemoNilComputes(t *testing.T) {
	builds := 0
	build := func() int { builds++; return 7 }
	for i := 0; i < 3; i++ {
		if got := Memoize[int](nil, &memoOwner, FieldKey(big.NewInt(5)), build); got != 7 {
			t.Fatalf("nil memo returned %d, want 7", got)
		}
	}
	if builds != 3 {
		t.Fatalf("nil memo built %d times for 3 lookups, want 3", builds)
	}
}

// TestMemoKeysComparedInFull checks that a hit needs the whole key: a
// message or field element one bit away, a message of another length,
// the other kind of key and another owner all miss, while an equal key
// in fresh storage hits without allocating.
func TestMemoKeysComparedInFull(t *testing.T) {
	var m Memo
	builds := 0
	look := func(owner any, k MemoKey) *int {
		return Memoize(&m, owner, k, func() *int { builds++; v := builds; return &v })
	}
	msg := wire.Message{Data: []byte{0xa5, 0x3c, 0x01}, Bits: 17}
	x := new(big.Int).Lsh(big.NewInt(3), 200)
	first, firstField := look(&memoOwner, MessageKey(msg)), look(&memoOwner, FieldKey(x))

	flipped := wire.Message{Data: []byte{0xa5, 0x3c, 0x00}, Bits: 17}
	shorter := wire.Message{Data: []byte{0xa5, 0x3c, 0x01}, Bits: 16}
	misses := []struct {
		name  string
		owner any
		key   MemoKey
	}{
		{"message one bit away", &memoOwner, MessageKey(flipped)},
		{"message of another length", &memoOwner, MessageKey(shorter)},
		{"field one bit away", &memoOwner, FieldKey(new(big.Int).SetBit(x, 7, 1))},
		{"field key with a message's value", &memoOwner, FieldKey(big.NewInt(0x013ca5))},
		{"another owner", &otherOwner, MessageKey(msg)},
	}
	for _, tc := range misses {
		before := builds
		look(tc.owner, tc.key)
		if builds != before+1 {
			t.Errorf("%s: hit, want a miss", tc.name)
		}
	}

	same := wire.Message{Data: []byte{0xa5, 0x3c, 0x01}, Bits: 17}
	sameField := new(big.Int).Set(x)
	if look(&memoOwner, MessageKey(same)) != first || look(&memoOwner, FieldKey(sameField)) != firstField {
		t.Fatal("an equal key in fresh storage missed")
	}
	// The memo keeps copies of its keys: changing the caller's storage
	// moves no entry.
	msg.Data[2] = 0
	x.SetInt64(1)
	if look(&memoOwner, MessageKey(same)) != first || look(&memoOwner, FieldKey(sameField)) != firstField {
		t.Fatal("a stored key followed its caller's storage")
	}
	allocs := testing.AllocsPerRun(100, func() {
		Memoize(&m, &memoOwner, MessageKey(same), func() *int { return nil })
		Memoize(&m, &memoOwner, FieldKey(sameField), func() *int { return nil })
	})
	if allocs != 0 {
		t.Fatalf("a hit allocates %v times, want 0", allocs)
	}
}

// TestMemoCap fills a memo to MemoCap entries: every stored key keeps
// hitting, and each key past the cap is built on every lookup.
func TestMemoCap(t *testing.T) {
	var m Memo
	builds := map[int64]int{}
	look := func(k int64) int64 {
		return Memoize(&m, &memoOwner, FieldKey(big.NewInt(k)), func() int64 { builds[k]++; return -k })
	}
	for k := int64(0); k < MemoCap+2; k++ {
		for pass := 0; pass < 3; pass++ {
			if got := look(k); got != -k {
				t.Fatalf("key %d: value %d, want %d", k, got, -k)
			}
		}
	}
	for k := int64(0); k < MemoCap+2; k++ {
		want := 1
		if k >= MemoCap {
			want = 3
		}
		if builds[k] != want {
			t.Errorf("key %d built %d times, want %d", k, builds[k], want)
		}
	}
	if len(m.entries) != MemoCap {
		t.Fatalf("memo holds %d entries, want the cap %d", len(m.entries), MemoCap)
	}
}

// memoCountSpec is a one-Merlin-round spec whose every node memoizes a
// build of its response, counting the builds.
func memoCountSpec(builds *atomic.Int32) *Spec {
	return &Spec{
		Name:   "memo-count",
		Rounds: []Round{{Kind: Merlin}},
		Decide: func(v int, view *NodeView) bool {
			got := Memoize(view.Memo, &memoOwner, MessageKey(view.Responses[0]), func() wire.Message {
				builds.Add(1)
				return view.Responses[0]
			})
			return got.Bits == 8
		},
	}
}

// TestMemoBuildsOncePerHost counts the builds of a Decide every node
// shares: one per in-process run, whose later runs reuse
// the pooled state of the first, one over loopTransport (one host for all
// nodes), and one per node over goTransport (a host per node).
func TestMemoBuildsOncePerHost(t *testing.T) {
	const n = 9
	g := graph.Cycle(n)
	cases := []struct {
		name      string
		transport func() Transport
		want      int32
	}{
		{"sequential", func() Transport { return nil }, 1},
		{"one host", func() Transport { return &loopTransport{} }, 1},
		{"host per node", func() Transport { return &goTransport{} }, n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var builds atomic.Int32
			spec := memoCountSpec(&builds)
			for run := 1; run <= 3; run++ {
				builds.Store(0)
				res, err := Run(spec, g, nil, broadcastProver{liar: -1}, Options{Seed: int64(run), Transport: tc.transport()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Accepted {
					t.Fatalf("run %d rejected", run)
				}
				if got := builds.Load(); got != tc.want {
					t.Fatalf("run %d built %d times, want %d", run, got, tc.want)
				}
			}
		})
	}
}

// TestPooledStateStartsWithEmptyMemo checks that a run's memo entries do
// not outlive it: the state the run returns to the pool holds none.
func TestPooledStateStartsWithEmptyMemo(t *testing.T) {
	var builds atomic.Int32
	if _, err := Run(memoCountSpec(&builds), graph.Cycle(9), nil, broadcastProver{liar: -1}, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 {
		t.Fatalf("run built %d times, want 1", builds.Load())
	}
	s := acquireState()
	defer s.release()
	if len(s.memo.entries) != 0 {
		t.Fatalf("pooled state holds %d memo entries, want 0", len(s.memo.entries))
	}
}
