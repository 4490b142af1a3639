package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	p := Identity(5)
	if !p.IsIdentity() {
		t.Fatal("Identity not identity")
	}
	if p.Moved() != -1 {
		t.Fatal("identity has a moved point")
	}
	if got := p.String(); got != "id" {
		t.Fatalf("String = %q", got)
	}
}

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice([]int{1, 2, 0}); err != nil {
		t.Fatalf("valid perm rejected: %v", err)
	}
	for _, bad := range [][]int{{0, 0, 1}, {0, 3, 1}, {-1, 0, 1}} {
		if _, err := FromSlice(bad); err == nil {
			t.Fatalf("invalid %v accepted", bad)
		}
	}
	// Copies input.
	src := []int{1, 0}
	p, _ := FromSlice(src)
	src[0] = 0
	if p[0] != 1 {
		t.Fatal("FromSlice did not copy")
	}
}

func TestIsValid(t *testing.T) {
	if !IsValid([]int{2, 0, 1}) {
		t.Fatal("valid rejected")
	}
	if IsValid([]int{1, 1, 0}) {
		t.Fatal("invalid accepted")
	}
}

func TestComposeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(12)
		p := Random(n, rng)
		q := Random(n, rng)
		// (p∘q)(i) == p(q(i))
		pq := p.Compose(q)
		for i := 0; i < n; i++ {
			if pq[i] != p[q[i]] {
				t.Fatalf("compose wrong at %d", i)
			}
		}
		if !p.Compose(p.Inverse()).IsIdentity() || !p.Inverse().Compose(p).IsIdentity() {
			t.Fatal("inverse not inverse")
		}
	}
}

func TestComposeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Identity(3).Compose(Identity(4))
}

func TestRandomNonIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		if RandomNonIdentity(2, rng).IsIdentity() {
			t.Fatal("got identity")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("n=1 should panic")
		}
	}()
	RandomNonIdentity(1, rng)
}

func TestCycles(t *testing.T) {
	p, _ := FromSlice([]int{2, 0, 1, 3, 5, 4})
	cycles := p.Cycles()
	want := [][]int{{0, 2, 1}, {3}, {4, 5}}
	if len(cycles) != len(want) {
		t.Fatalf("cycles = %v", cycles)
	}
	for i := range want {
		if len(cycles[i]) != len(want[i]) {
			t.Fatalf("cycle %d = %v, want %v", i, cycles[i], want[i])
		}
		for j := range want[i] {
			if cycles[i][j] != want[i][j] {
				t.Fatalf("cycle %d = %v, want %v", i, cycles[i], want[i])
			}
		}
	}
	if got := p.String(); got != "(0 2 1)(4 5)" {
		t.Fatalf("String = %q", got)
	}
}

func TestNextLexEnumeratesSn(t *testing.T) {
	// From the identity, NextLex must walk all 24 permutations of S_4,
	// each lexicographically after the one before.
	p := Identity(4)
	count := 1
	for {
		prev := p.Clone()
		if !p.NextLex() {
			break
		}
		count++
		for i := range p {
			if p[i] != prev[i] {
				if p[i] < prev[i] {
					t.Fatalf("%v follows %v", p, prev)
				}
				break
			}
		}
	}
	if count != 24 {
		t.Fatalf("enumerated %d permutations, want 24", count)
	}
}

func TestNextLexLast(t *testing.T) {
	p, _ := FromSlice([]int{2, 1, 0})
	if p.NextLex() {
		t.Fatal("last permutation has a successor")
	}
	if !p.Equal(Perm{2, 1, 0}) {
		t.Fatal("NextLex mutated the last permutation")
	}
}

func TestMoved(t *testing.T) {
	p, _ := FromSlice([]int{0, 2, 1})
	if got := p.Moved(); got != 1 {
		t.Fatalf("Moved = %d, want 1", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := Identity(3)
	c := p.Clone()
	c[0] = 2
	if p[0] != 0 {
		t.Fatal("clone aliases original")
	}
}

func TestQuickInverseComposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		p := Random(n, rng)
		q := Random(n, rng)
		// (p∘q)⁻¹ == q⁻¹∘p⁻¹
		lhs := p.Compose(q).Inverse()
		rhs := q.Inverse().Compose(p.Inverse())
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSorted(t *testing.T) {
	if !Identity(5).Sorted() {
		t.Fatal("identity not sorted")
	}
	p, _ := FromSlice([]int{1, 0})
	if p.Sorted() {
		t.Fatal("transposition sorted")
	}
}
