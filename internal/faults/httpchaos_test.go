package faults

import (
	"testing"
)

// TestHTTPChaosRegistryConsistent: every scenario's map key matches its
// Name, every scenario has a summary and a runner, and the sorted name
// listing covers the registry exactly.
func TestHTTPChaosRegistryConsistent(t *testing.T) {
	names := HTTPChaosNames()
	if len(names) != len(httpChaosRegistry) {
		t.Fatalf("HTTPChaosNames lists %d of %d scenarios", len(names), len(httpChaosRegistry))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names unsorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
	for key, sc := range httpChaosRegistry {
		if sc.Name != key {
			t.Errorf("scenario keyed %q names itself %q", key, sc.Name)
		}
		if sc.Summary == "" || sc.Run == nil {
			t.Errorf("scenario %q missing summary or runner", key)
		}
	}
}

// TestHTTPChaosForDeterministic: the scenario stream is a pure function
// of the seed — same seed, same sequence of scenario picks and identical
// private randomness; a different seed diverges.
func TestHTTPChaosForDeterministic(t *testing.T) {
	const n = 64
	draw := func(seed int64) ([]string, []int64) {
		names := make([]string, n)
		firsts := make([]int64, n)
		for i := 0; i < n; i++ {
			sc, rng := HTTPChaosFor(seed, i)
			names[i] = sc.Name
			firsts[i] = rng.Int63()
		}
		return names, firsts
	}
	names1, firsts1 := draw(7)
	names2, firsts2 := draw(7)
	for i := 0; i < n; i++ {
		if names1[i] != names2[i] || firsts1[i] != firsts2[i] {
			t.Fatalf("exchange %d not reproducible: (%s, %d) vs (%s, %d)",
				i, names1[i], firsts1[i], names2[i], firsts2[i])
		}
	}
	names3, _ := draw(8)
	same := 0
	for i := 0; i < n; i++ {
		if names1[i] == names3[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 7 and 8 produced identical scenario streams")
	}
}

// TestHTTPChaosForCoversRegistry: over a modest session every scenario
// comes up — the selector is a uniform pick, not a biased one.
func TestHTTPChaosForCoversRegistry(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		sc, _ := HTTPChaosFor(1, i)
		seen[sc.Name] = true
	}
	for _, name := range HTTPChaosNames() {
		if !seen[name] {
			t.Errorf("scenario %q never selected in 200 draws", name)
		}
	}
}

// TestHTTPChaosPlaneDisjointFromMessages: the HTTP plane's derivation
// tags (3, 4) must not collide with the message planes (1, 2) — a chaos
// session and a fault-injection session sharing one seed stay
// independent streams.
func TestHTTPChaosPlaneDisjointFromMessages(t *testing.T) {
	for i := uint64(0); i < 32; i++ {
		httpPick := deriveState(5, 3, i)
		httpRNG := deriveState(5, 4, i)
		for plane := uint64(1); plane <= 2; plane++ {
			if s := deriveState(5, plane, i); s == httpPick || s == httpRNG {
				t.Fatalf("derivation collision at index %d, plane %d", i, plane)
			}
		}
	}
}
