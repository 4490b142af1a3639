package dip

import (
	"context"
	"encoding/json"
	"errors"
	"math/big"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/obs"
	"dip/internal/peer"
	"dip/internal/prime"
)

// verifiesUnder reports whether spec, a sym-dam spec for the n-cycle,
// accepts the honest prover for modulus p: the prover's field widths and
// hashes are those of p, so it convinces a spec built for any other
// modulus only by a collision the fixed seed does not produce.
func verifiesUnder(t *testing.T, spec *network.Spec, n int, p *big.Int) bool {
	t.Helper()
	proto, err := core.NewSymDAMWithPrime(n, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := network.RunContext(context.Background(), spec, graph.Cycle(n), nil, proto.HonestProver(),
		network.Options{Seed: 5})
	return err == nil && res.Accepted
}

// TestPeerSpec pins the peer side of a provisioned sym-dam modulus: the
// spec a peer builds verifies under the modulus the coordinator sent, a
// modulus outside the protocol's window, unparsable, or sent for another
// protocol is refused (through a live peer, as a setup-phase RunError),
// params without one build the per-n prime, whatever their seed, and a
// provisioned instance is never cached, so a later session for the same
// n and seed still gets the per-n prime.
func TestPeerSpec(t *testing.T) {
	ResetSetupCaches()
	const n, seed, oldSeed = 8, 61, 62
	own, err := prime.ForPowerWindow(n)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := prime.PowerWindow(n)
	if err != nil {
		t.Fatal(err)
	}
	other, err := prime.InWindow(lo, hi, seed+100)
	if err != nil || other.Cmp(own) == 0 {
		t.Fatalf("another in-window prime %v (%v) must differ from the per-n %v", other, err, own)
	}
	provisioned := func(protocol string, p *big.Int) []byte {
		b, err := json.Marshal(fleetParams{Request: Request{Protocol: protocol, N: n, Options: Options{Seed: seed}}, Modulus: p})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// An older coordinator sends the stripped Request alone.
	legacy := func(s int64) []byte {
		b, err := json.Marshal(Request{Protocol: "sym-dam", N: n, Options: Options{Seed: s}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name    string
		params  []byte
		want    *big.Int // the modulus the spec verifies under
		notWant *big.Int // and one it must not
		refusal string   // for a refused blob: a fragment of the error
	}{
		{name: "other in-window prime", params: provisioned("sym-dam", other), want: other, notWant: own},
		{name: "below window", params: provisioned("sym-dam", new(big.Int).Sub(lo, big.NewInt(1))), refusal: "outside"},
		{name: "above window", params: provisioned("sym-dam", new(big.Int).Add(hi, big.NewInt(1))), refusal: "outside"},
		{name: "malformed number",
			params:  []byte(`{"protocol":"sym-dam","n":8,"edges":null,"options":{"seed":61},"modulus":1.5e30}`),
			refusal: "decoding fleet params"},
		{name: "modulus for sym-dmam", params: provisioned("sym-dmam", own), refusal: "takes no provisioned modulus"},
		{name: "no modulus", params: legacy(oldSeed), want: own, notWant: other},
		{name: "later build for the same seed", params: legacy(seed), want: own, notWant: other},
	}

	fleet, err := DialFleet(startDipPeers(t, 1), FleetOptions{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := PeerSpec(tc.params)
			if tc.refusal != "" {
				var reqErr *RequestError
				if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), tc.refusal) {
					t.Fatalf("PeerSpec = %v, want a RequestError mentioning %q", err, tc.refusal)
				}
				// A peer answers the refusal with a setup-phase error.
				run, err := AssembleRun(Request{Protocol: "sym-dam", N: n,
					Edges: edgesOf(graph.Cycle(n)), Options: Options{Seed: seed}})
				if err != nil {
					t.Fatal(err)
				}
				_, err = network.RunContext(context.Background(), run.Spec, run.Graph, nil, run.Prover,
					network.Options{Seed: seed, Transport: fleet.pf.NewRun(tc.params)})
				var runErr *network.RunError
				if !errors.As(err, &runErr) || runErr.Phase != network.PhaseSetup {
					t.Fatalf("fleet run = %v, want a %s-phase RunError", err, network.PhaseSetup)
				}
				return
			}
			if err != nil {
				t.Fatalf("PeerSpec: %v", err)
			}
			if !verifiesUnder(t, spec, n, tc.want) {
				t.Fatalf("spec does not verify under the modulus %v", tc.want)
			}
			if verifiesUnder(t, spec, n, tc.notWant) {
				t.Fatalf("spec verifies under %v, not only under %v", tc.notWant, tc.want)
			}
		})
	}
}

// TestFleetRunProvisionsModulus pins the coordinator side: a fleet run
// of sym-dam sends its peer the stripped request and the modulus of the
// instance it assembled, and the whole run makes one protocol-cache
// lookup, because the peer builds from the modulus and looks nothing up.
// A sym-dmam run sends no modulus, and its peer looks its instance up
// again.
func TestFleetRunProvisionsModulus(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		sent []fleetParams
	)
	srv := &peer.Server{Build: func(params []byte) (*network.Spec, error) {
		var fp fleetParams
		if err := json.Unmarshal(params, &fp); err != nil {
			return nil, err
		}
		mu.Lock()
		sent = append(sent, fp)
		mu.Unlock()
		return PeerSpec(params)
	}}
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	takeSent := func() []fleetParams {
		mu.Lock()
		defer mu.Unlock()
		out := sent
		sent = nil
		return out
	}
	fleet, err := DialFleet([]string{l.Addr().String()}, FleetOptions{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	meter := obs.Cache("protocols")
	for _, tc := range []struct {
		protocol string
		seed     int64
		lookups  int64
	}{{"sym-dam", 7001, 1}, {"sym-dmam", 7002, 2}} {
		req := Request{Protocol: tc.protocol, N: 8, Edges: edgesOf(graph.Cycle(8)), Options: Options{Seed: tc.seed}}
		before := meter.Hits.Value() + meter.Misses.Value()
		rep, err := fleet.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", tc.protocol, err)
		}
		if got := meter.Hits.Value() + meter.Misses.Value() - before; got != tc.lookups {
			t.Errorf("%s: %d protocol-cache lookups per fleet run, want %d", tc.protocol, got, tc.lookups)
		}
		want, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*rep, want) {
			t.Errorf("%s: fleet report differs from Run", tc.protocol)
		}
		blobs := takeSent()
		if len(blobs) != 1 || blobs[0].Edges != nil {
			t.Fatalf("%s: peer received %d params blobs, want one with the edges stripped", tc.protocol, len(blobs))
		}
		if tc.protocol != "sym-dam" {
			if blobs[0].Modulus != nil {
				t.Errorf("%s: params carry a modulus", tc.protocol)
			}
			continue
		}
		p, err := prime.ForPowerWindow(req.N)
		if err != nil {
			t.Fatal(err)
		}
		if blobs[0].Modulus == nil || blobs[0].Modulus.Cmp(p) != 0 {
			t.Errorf("sym-dam params carry modulus %v, want the per-n %v", blobs[0].Modulus, p)
		}
	}
}
