package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAndBasicOps(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	s.Flip(64)
	if !s.Contains(64) {
		t.Fatal("Flip did not set 64")
	}
	s.Flip(64)
	if s.Contains(64) {
		t.Fatal("Flip did not clear 64")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"negative length", func() { New(-1) }},
		{"add high", func() { New(4).Add(4) }},
		{"add negative", func() { New(4).Add(-1) }},
		{"contains high", func() { New(4).Contains(99) }},
		{"mismatched copy", func() { New(4).CopyFrom(New(5)) }},
		{"permute wrong length", func() { New(4).Permute([]int{0, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestFromIndices(t *testing.T) {
	s := FromIndices(9, 1, 3, 5)
	if got := s.Indices(); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("Indices = %v", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromIndices(8, 1)
	c := a.Clone()
	c.Add(2)
	if a.Contains(2) {
		t.Fatal("mutating clone changed original")
	}
	if !a.Equal(FromIndices(8, 1)) {
		t.Fatal("original changed")
	}
}

// TestNewSliceSetsAreIndependent checks that the sets NewSlice carves
// from one array start empty and at their length, and that filling one
// leaves its neighbors untouched, across word boundaries.
func TestNewSliceSetsAreIndependent(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		sets := NewSlice(4, n)
		if len(sets) != 4 {
			t.Fatalf("n=%d: %d sets, want 4", n, len(sets))
		}
		for i := range sets {
			if sets[i].Len() != n || !sets[i].Empty() {
				t.Fatalf("n=%d: set %d has length %d, empty %v", n, i, sets[i].Len(), sets[i].Empty())
			}
		}
		for c := 0; c < n; c++ {
			sets[1].Add(c)
		}
		sets[2].CopyFrom(FromIndices(n))
		for _, i := range []int{0, 2, 3} {
			if !sets[i].Empty() {
				t.Fatalf("n=%d: filling set 1 reached set %d: %v", n, i, &sets[i])
			}
		}
		if sets[1].Count() != n {
			t.Fatalf("n=%d: set 1 holds %d bits, want %d", n, sets[1].Count(), n)
		}
	}
}

func TestEqual(t *testing.T) {
	if !FromIndices(8, 1, 2).Equal(FromIndices(8, 1, 2)) {
		t.Fatal("equal sets not Equal")
	}
	if FromIndices(8, 1).Equal(FromIndices(8, 2)) {
		t.Fatal("different sets Equal")
	}
	if FromIndices(8, 1).Equal(FromIndices(9, 1)) {
		t.Fatal("different lengths Equal")
	}
}

func TestFillClearTrim(t *testing.T) {
	s := New(70)
	for i := 0; i < 70; i++ {
		s.Add(i)
	}
	if got := s.Count(); got != 70 {
		t.Fatalf("Count after filling = %d, want 70", got)
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("not empty after Clear")
	}
}

func TestNextSet(t *testing.T) {
	s := FromIndices(200, 3, 64, 190)
	want := []int{3, 64, 190}
	var got []int
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		got = append(got, i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration = %v, want %v", got, want)
	}
	if s.NextSet(191) != -1 {
		t.Fatal("NextSet past end != -1")
	}
	if s.NextSet(-5) != 3 {
		t.Fatal("NextSet(-5) should clamp to 0")
	}
	if s.NextSet(64) != 64 {
		t.Fatal("NextSet(64) should include 64")
	}
}

func TestString(t *testing.T) {
	s := FromIndices(5, 0, 4)
	if got := s.String(); got != "10001" {
		t.Fatalf("String = %q", got)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200} {
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				s.Add(i)
			}
		}
		b := s.Bytes()
		if len(b) != (n+7)/8 {
			t.Fatalf("n=%d: %d bytes", n, len(b))
		}
		got := New(n)
		for i := 0; i < n; i++ {
			if b[i/8]&(1<<(uint(i)%8)) != 0 {
				got.Add(i)
			}
		}
		if !got.Equal(s) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestPermute(t *testing.T) {
	s := FromIndices(4, 0, 2)
	// rotation i -> i+1 mod 4
	got := s.Permute([]int{1, 2, 3, 0})
	if want := FromIndices(4, 1, 3); !got.Equal(want) {
		t.Fatalf("Permute = %v, want %v", got.Indices(), want.Indices())
	}
}

func TestPermuteNonInjective(t *testing.T) {
	s := FromIndices(3, 0, 1)
	got := s.Permute([]int{2, 2, 0})
	// both 0 and 1 map to 2
	if want := FromIndices(3, 2); !got.Equal(want) {
		t.Fatalf("Permute = %v, want %v", got.Indices(), want.Indices())
	}
}

// Properties of the relabeling: a permutation preserves the count, its
// inverse undoes it, and Indices lists what FromIndices set.
func TestQuickProperties(t *testing.T) {
	mk := func(bits []bool) *Set {
		s := New(len(bits))
		for i, b := range bits {
			if b {
				s.Add(i)
			}
		}
		return s
	}
	permutation := func(seed int64, n int) ([]int, []int) {
		p := rand.New(rand.NewSource(seed)).Perm(n)
		inv := make([]int, n)
		for i, v := range p {
			inv[v] = i
		}
		return p, inv
	}

	permuteInverse := func(a [67]bool, seed int64) bool {
		x := mk(a[:])
		p, inv := permutation(seed, 67)
		y := x.Permute(p)
		return y.Count() == x.Count() && y.Permute(inv).Equal(x)
	}
	if err := quick.Check(permuteInverse, nil); err != nil {
		t.Errorf("permute then inverse changed the set: %v", err)
	}

	indicesRoundTrip := func(a [67]bool) bool {
		x := mk(a[:])
		return FromIndices(67, x.Indices()...).Equal(x)
	}
	if err := quick.Check(indicesRoundTrip, nil); err != nil {
		t.Errorf("indices round trip failed: %v", err)
	}
}

func TestIndicesEmpty(t *testing.T) {
	if got := New(10).Indices(); len(got) != 0 {
		t.Fatalf("Indices of empty = %v", got)
	}
}

func TestZeroLength(t *testing.T) {
	s := New(0)
	if !s.Empty() || s.Count() != 0 || s.NextSet(0) != -1 {
		t.Fatal("zero-length set misbehaves")
	}
	if len(s.Bytes()) != 0 {
		t.Fatal("zero-length Bytes not empty")
	}
}
