package dip

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/peer"
)

// fleetTestRequests builds one request per registry protocol — every
// family, every instance shape (single graph, GNI pair, dumbbell, marked)
// — for the fleet equivalence column.
func fleetTestRequests(t *testing.T) []Request {
	t.Helper()
	cycle8 := edgesOf(graph.Cycle(8))
	ring24 := edgesOf(graph.Cycle(24))

	rng := rand.New(rand.NewSource(40))
	dumbbell := edgesOf(graph.DSymGraph(graph.ConnectedGNP(6, 0.5, rng), 1))

	gniRng := rand.New(rand.NewSource(41))
	a, err := graph.RandomAsymmetricConnected(6, gniRng)
	if err != nil {
		t.Fatal(err)
	}
	var b *graph.Graph
	for {
		if b, err = graph.RandomAsymmetricConnected(6, gniRng); err != nil {
			t.Fatal(err)
		}
		if !graph.AreIsomorphic(a, b) {
			break
		}
	}
	edgesA, edgesB := edgesOf(a), edgesOf(b)

	c6 := edgesOf(graph.Cycle(6))
	k33g := graph.New(6)
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			k33g.AddEdge(u, v)
		}
	}
	k33 := edgesOf(k33g)

	markedN := 13
	marks := make([]int, markedN)
	var markedEdges [][2]int
	for v := 0; v < 6; v++ {
		marks[v] = 0
		marks[v+6] = 1
	}
	marks[12] = -1
	markedEdges = append(markedEdges, edgesA...)
	for _, e := range edgesB {
		markedEdges = append(markedEdges, [2]int{e[0] + 6, e[1] + 6})
	}
	for v := 0; v < 12; v++ {
		markedEdges = append(markedEdges, [2]int{v, 12})
	}

	return []Request{
		{Protocol: "sym-dmam", N: 8, Edges: cycle8, Options: Options{Seed: 201}},
		{Protocol: "sym-dam", N: 8, Edges: cycle8, Options: Options{Seed: 202}},
		{Protocol: "sym-lcp", N: 8, Edges: cycle8, Options: Options{Seed: 203}},
		{Protocol: "sym-rpls", N: 24, Edges: ring24, Options: Options{Seed: 204}},
		{Protocol: "dsym-dam", Side: 6, Half: 1, Edges: dumbbell, Options: Options{Seed: 205}},
		{Protocol: "gni-damam", N: 6, Edges: edgesA, Edges1: edgesB,
			Options: Options{Seed: 206, Repetitions: 6}},
		{Protocol: "gni-general", N: 6, Edges: c6, Edges1: k33,
			Options: Options{Seed: 207, Repetitions: 6}},
		{Protocol: "gni-lcp", N: 6, Edges: edgesA, Edges1: edgesB,
			Options: Options{Seed: 208}},
		{Protocol: "gni-marked", N: markedN, Edges: markedEdges, Marks: marks,
			Options: Options{Seed: 209, Repetitions: 6}},
	}
}

// startDipPeers boots k in-process peer servers with the SpecBuilder
// cmd/dippeer installs, PeerSpec, and returns their addresses.
func startDipPeers(t testing.TB, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &peer.Server{Build: PeerSpec}
		go srv.Serve(l)
		t.Cleanup(func() {
			l.Close()
			srv.Close()
		})
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// TestFleetMatchesRun is the fleet column of the equivalence contract:
// every registry protocol, executed through dip.Fleet onto real TCP peer
// processes — all of them concurrently, multiplexed over one standing
// fleet — must produce a Report identical to dip.Run on the same request.
// dip.Run itself must be deterministic, or that equality would be
// meaningless: a second in-process run of each request must match the
// first.
func TestFleetMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every protocol three times")
	}
	reqs := fleetTestRequests(t)
	fleet, err := DialFleet(startDipPeers(t, 3), FleetOptions{IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	type outcome struct {
		fleet *Report
		err   error
	}
	outcomes := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			rep, err := fleet.Run(context.Background(), req)
			outcomes[i] = outcome{fleet: rep, err: err}
		}(i, req)
	}
	wg.Wait()

	for i, req := range reqs {
		t.Run(req.Protocol, func(t *testing.T) {
			if outcomes[i].err != nil {
				t.Fatalf("fleet run: %v", outcomes[i].err)
			}
			local, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(local, again) {
				t.Fatalf("Run is not deterministic at seed %d", req.Options.Seed)
			}
			if !reflect.DeepEqual(*outcomes[i].fleet, local) {
				t.Fatalf("fleet report diverges from dip.Run:\nfleet %+v\nlocal %+v",
					*outcomes[i].fleet, local)
			}
		})
	}
}

// TestFleetMemosMatchRun runs the protocols whose verifiers share work
// through a host's run memo — sym-lcp and sym-rpls (the advice check) and
// sym-dam (the row-hash table) — two seeds each, all concurrently on one
// 2-peer fleet, so several peer sessions fill their memos at once. Each
// dip-report/v1 document must be byte-identical to dip.Run's. It runs
// under -short, so the race detector sees concurrent sessions' memos.
func TestFleetMemosMatchRun(t *testing.T) {
	ring := edgesOf(graph.Cycle(16))
	var reqs []Request
	for i, protocol := range []string{"sym-lcp", "sym-rpls", "sym-dam"} {
		for k := int64(0); k < 2; k++ {
			reqs = append(reqs, Request{Protocol: protocol, N: 16, Edges: ring,
				Options: Options{Seed: 300 + 2*int64(i) + k}})
		}
	}
	fleet, err := DialFleet(startDipPeers(t, 2), FleetOptions{IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	document := func(rep Report, seed int64) []byte {
		var buf bytes.Buffer
		if err := WireReportFrom(rep, seed).Encode(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	docs := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			rep, err := fleet.Run(context.Background(), req)
			if err != nil {
				t.Errorf("%s seed %d: fleet run: %v", req.Protocol, req.Options.Seed, err)
				return
			}
			docs[i] = document(*rep, req.Options.Seed)
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, req := range reqs {
		local, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if !local.Accepted {
			t.Fatalf("%s seed %d: honest run rejected", req.Protocol, req.Options.Seed)
		}
		if want := document(local, req.Options.Seed); !bytes.Equal(docs[i], want) {
			t.Fatalf("%s seed %d: fleet document differs from dip.Run's:\n%s\n%s",
				req.Protocol, req.Options.Seed, docs[i], want)
		}
	}
}

// TestPooledHostStartsClean drives one peer through sessions that change
// protocol and size — sym-lcp at n = 16, sym-dmam at 64 and then 8,
// sym-rpls at 32, and gni-lcp — twice over. Each session plays its nodes
// through a Host checked out of the engine-state pool, so a view, backing
// array, RNG or memo entry left by an earlier, larger or different
// session would show: every dip-report/v1 document must be byte-identical
// to dip.Run's, and every engine Result, transcript included (it holds
// the nodes' challenges), must equal an in-process run's. On the second
// pass the pool is warm, and each fleet run must hit it at least twice:
// once for the coordinator's run and once for the peer session's Host.
func TestPooledHostStartsClean(t *testing.T) {
	var reqs []Request
	for i, c := range []struct {
		protocol string
		n        int
	}{{"sym-lcp", 16}, {"sym-dmam", 64}, {"sym-dmam", 8}, {"sym-rpls", 32}} {
		reqs = append(reqs, Request{Protocol: c.protocol, N: c.n, Edges: edgesOf(graph.Cycle(c.n)),
			Options: Options{Seed: 400 + int64(i)}})
	}
	for _, req := range fleetTestRequests(t) {
		if req.Protocol == "gni-lcp" {
			reqs = append(reqs, req)
		}
	}
	fleet, err := DialFleet(startDipPeers(t, 1), FleetOptions{IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	document := func(rep *Report, seed int64) []byte {
		var buf bytes.Buffer
		if err := WireReportFrom(*rep, seed).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A peer session gives its Host back just after its last write, so a
	// fleet run can return before the Host is in the pool again: each warm
	// run starts once the pool holds two free states.
	settle := func() {
		for deadline := time.Now().Add(5 * time.Second); network.StatePoolStats().Free < 2; {
			if time.Now().After(deadline) {
				t.Fatal("the state pool never held two free states")
			}
			time.Sleep(time.Millisecond)
		}
	}
	want := make([]*network.Result, len(reqs))
	for i, req := range reqs {
		want[i] = engineResult(t, req, nil)
	}
	for pass := 0; pass < 2; pass++ {
		for i, req := range reqs {
			if pass == 1 {
				settle()
			}
			before := network.StatePoolStats().Hits
			remote, err := fleet.Run(context.Background(), req)
			hits := network.StatePoolStats().Hits - before
			if err != nil {
				t.Fatalf("%s n=%d: fleet run: %v", req.Protocol, req.N, err)
			}
			local, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := document(remote, req.Options.Seed), document(&local, req.Options.Seed); !bytes.Equal(got, want) {
				t.Fatalf("pass %d, %s n=%d: fleet document differs from dip.Run's:\n%s\n%s",
					pass, req.Protocol, req.N, got, want)
			}
			if pass == 1 && hits < 2 {
				t.Fatalf("%s n=%d: a warm fleet run hit the state pool %d times, want 2 (coordinator and peer session)",
					req.Protocol, req.N, hits)
			}
			if got := engineResult(t, req, fleet); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("pass %d, %s n=%d: fleet engine result differs from an in-process run's", pass, req.Protocol, req.N)
			}
		}
	}
}

// engineResult runs req's assembled instance on the engine with its
// transcript recorded, on fleet's peers, or in-process when fleet is nil.
func engineResult(t *testing.T, req Request, fleet *Fleet) *network.Result {
	t.Helper()
	run, err := AssembleRun(req)
	if err != nil {
		t.Fatal(err)
	}
	opts := network.Options{Seed: req.Options.Seed, RecordTranscript: true}
	if fleet != nil {
		if opts.Transport, err = fleet.TransportFor(req, run); err != nil {
			t.Fatal(err)
		}
	}
	res, err := network.Run(run.Spec, run.Graph, run.Inputs, run.Prover, opts)
	if err != nil {
		t.Fatalf("%s n=%d: %v", req.Protocol, req.N, err)
	}
	return res
}

// TestProverMemoUnderTimeout runs sym-dam and sym-dmam, whose provers
// leave the echoed index's row table in the run's memo for the verifiers,
// concurrently through dip.Run with Options.Timeout set: each prover then
// answers from a goroutine of its own, so the table it fills there is
// read by the nodes on the run's goroutine, while other runs hash on the
// same cached protocol instances. Every dip-report/v1 document must be
// byte-identical to a run's without a deadline. It runs under -short, so
// `make race` checks the hand-off.
func TestProverMemoUnderTimeout(t *testing.T) {
	ring := edgesOf(graph.Cycle(16))
	var reqs []Request
	for _, protocol := range []string{"sym-dam", "sym-dmam"} {
		for k := int64(0); k < 3; k++ {
			reqs = append(reqs, Request{Protocol: protocol, N: 16, Edges: ring,
				Options: Options{Seed: 500 + k}})
		}
	}
	document := func(rep Report, seed int64) []byte {
		var buf bytes.Buffer
		if err := WireReportFrom(rep, seed).Encode(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		rep, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted {
			t.Fatalf("%s seed %d: honest run rejected", req.Protocol, req.Options.Seed)
		}
		want[i] = document(rep, req.Options.Seed)
	}
	var wg sync.WaitGroup
	for copies := 0; copies < 3; copies++ {
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req Request) {
				defer wg.Done()
				req.Options.Timeout = time.Minute
				rep, err := Run(req)
				if err != nil {
					t.Errorf("%s seed %d: %v", req.Protocol, req.Options.Seed, err)
					return
				}
				if got := document(rep, req.Options.Seed); !bytes.Equal(got, want[i]) {
					t.Errorf("%s seed %d: document with a prover deadline differs:\n%s\n%s",
						req.Protocol, req.Options.Seed, got, want[i])
				}
			}(i, req)
		}
	}
	wg.Wait()
}

// TestLegacyEntryPointsMatchRun is the compatibility contract for callers
// of the retired Prove* entry points. Each was a thin mapping onto one
// registry protocol, and the Report it returned — recorded below field for
// field, per-round breakdown included, from the last revision that still
// shipped the wrappers — must be exactly what dip.Run returns for the
// request it mapped to. A changed default, reordered validation or drifted
// instance assembly in the registry fails here.
func TestLegacyEntryPointsMatchRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every protocol once")
	}
	accepts := func(n int) []bool {
		d := make([]bool, n)
		for v := range d {
			d[v] = true
		}
		return d
	}
	reqs := make(map[string]Request)
	for _, req := range fleetTestRequests(t) {
		reqs[req.Protocol] = req
	}
	cases := []struct {
		name string
		seed int64
		want Report
	}{
		{"ProveSymmetry", 101, Report{Protocol: "sym-dmam", Accepted: true, Decisions: accepts(8),
			MaxProverBits: 72, TotalProverBits: 576, MaxNodeToNodeBits: 114, MaxNode: 0,
			PerRound: []RoundCost{{"Merlin", 0, 12, 24}, {"Arthur", 15, 0, 0}, {"Merlin", 0, 45, 90}}}},
		// Re-recorded when sym-dam's modulus became the least prime of its
		// window: lg p is 34 bits at n = 8, where the seed's prime took 37,
		// so each of the four field-sized entries is 3 bits narrower.
		{"ProveSymmetryChallengeFirst", 102, Report{Protocol: "sym-dam", Accepted: true, Decisions: accepts(8),
			MaxProverBits: 169, TotalProverBits: 1352, MaxNodeToNodeBits: 270, MaxNode: 0,
			PerRound: []RoundCost{{"Arthur", 34, 0, 0}, {"Merlin", 0, 135, 270}}}},
		{"ProveSymmetryNonInteractive", 103, Report{Protocol: "sym-lcp", Accepted: true, Decisions: accepts(8),
			MaxProverBits: 55, TotalProverBits: 440, MaxNodeToNodeBits: 110, MaxNode: 0,
			PerRound: []RoundCost{{"Merlin", 0, 55, 110}}}},
		{"ProveSymmetryFingerprinted", 104, Report{Protocol: "sym-rpls", Accepted: true, Decisions: accepts(24),
			MaxProverBits: 401, TotalProverBits: 9624, MaxNodeToNodeBits: 80, MaxNode: 0,
			PerRound: []RoundCost{{"Merlin", 0, 401, 80}}}},
		{"ProveDumbbellSymmetry", 105, Report{Protocol: "dsym-dam", Accepted: true, Decisions: accepts(15),
			MaxProverBits: 76, TotalProverBits: 1140, MaxNodeToNodeBits: 295, MaxNode: 0,
			PerRound: []RoundCost{{"Arthur", 17, 0, 0}, {"Merlin", 0, 59, 295}}}},
		{"ProveNonIsomorphism", 106, Report{Protocol: "gni-damam", Accepted: true, Decisions: accepts(6),
			MaxProverBits: 1829, TotalProverBits: 10902, MaxNodeToNodeBits: 5788, MaxNode: 2,
			PerRound: []RoundCost{{"Arthur", 360, 0, 0}, {"Merlin", 0, 1140, 4560},
				{"Arthur", 22, 0, 0}, {"Merlin", 0, 307, 1228}}}},
		{"ProveNonIsomorphismGeneral", 107, Report{Protocol: "gni-general", Accepted: true, Decisions: accepts(6),
			MaxProverBits: 2956, TotalProverBits: 17736, MaxNodeToNodeBits: 4976, MaxNode: 0,
			PerRound: []RoundCost{{"Arthur", 468, 0, 0}, {"Merlin", 0, 2488, 4976}}}},
		// Node 0 rejects at this seed: the recorded report is a rejection,
		// and Run must reproduce it just as exactly.
		{"ProveInducedNonIsomorphism", 108, Report{Protocol: "gni-marked", Accepted: false,
			Decisions:     append([]bool{false}, accepts(12)...),
			MaxProverBits: 359, TotalProverBits: 4167, MaxNodeToNodeBits: 2004, MaxNode: 12,
			PerRound: []RoundCost{{"Arthur", 168, 0, 0}, {"Merlin", 0, 95, 1140},
				{"Arthur", 24, 0, 0}, {"Merlin", 0, 72, 864}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, ok := reqs[tc.want.Protocol]
			if !ok {
				t.Fatalf("no request for protocol %q", tc.want.Protocol)
			}
			req.Options.Seed = tc.seed
			got, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Run diverges from the %s report at seed %d:\ngot  %+v\nwant %+v",
					tc.name, tc.seed, got, tc.want)
			}
		})
	}
}

// TestFleetUnderChaos is the fleet-under-chaos matrix cell: the soundness
// gates must hold on the real TCP path with socket-level faults injected.
// Under pure delay every run completes bit-identical to dip.Run (latency
// cannot change bytes). Under drop a run either completes — again
// bit-identical — or fails with a structured transport error; in
// particular a no-instance never turns into an accept, because a
// partition starves a session rather than forging frames.
func TestFleetUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix over the TCP path")
	}
	yes := Request{Protocol: "sym-dmam", N: 8, Edges: edgesOf(graph.Cycle(8)),
		Options: Options{Seed: 301}}
	rng := rand.New(rand.NewSource(302))
	asym, err := graph.RandomAsymmetricConnected(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	no := Request{Protocol: "sym-dmam", N: 7, Edges: edgesOf(asym),
		Options: Options{Seed: 303}}
	reqs := []Request{yes, no, yes, no}

	baselines := make([]Report, len(reqs))
	for i, req := range reqs {
		if baselines[i], err = Run(req); err != nil {
			t.Fatal(err)
		}
	}
	if !baselines[0].Accepted || baselines[1].Accepted {
		t.Fatalf("baseline outcomes inverted: yes=%v no=%v", baselines[0].Accepted, baselines[1].Accepted)
	}

	t.Run("delay", func(t *testing.T) {
		fleet, err := DialFleet(startDipPeers(t, 2), FleetOptions{
			IOTimeout:  30 * time.Second,
			LinkFaults: &LinkFaults{Seed: 7, Delay: time.Millisecond, DelayProb: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		for i, req := range reqs {
			rep, err := fleet.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("delayed run %d: %v", i, err)
			}
			if !reflect.DeepEqual(*rep, baselines[i]) {
				t.Fatalf("delay changed the bytes of run %d", i)
			}
		}
	})

	t.Run("drop", func(t *testing.T) {
		fleet, err := DialFleet(startDipPeers(t, 2), FleetOptions{
			IOTimeout:  400 * time.Millisecond,
			LinkFaults: &LinkFaults{Seed: 11, DropProb: 0.05},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		failed := 0
		for i, req := range reqs {
			rep, err := fleet.Run(context.Background(), req)
			if err != nil {
				var rerr *network.RunError
				if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
					t.Fatalf("lossy run %d failed unstructurally: %v", i, err)
				}
				failed++
				continue
			}
			if !reflect.DeepEqual(*rep, baselines[i]) {
				t.Fatalf("lossy run %d completed with different bytes", i)
			}
		}
		t.Logf("drop cell: %d/%d runs starved into transport errors", failed, len(reqs))
	})
}

// TestFleetRunValidation pins the error surface of the public API: bad
// requests fail before any session is minted, and a closed fleet fails
// with a structured transport error rather than a hang.
func TestFleetRunValidation(t *testing.T) {
	fleet, err := DialFleet(startDipPeers(t, 1), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var reqErr *RequestError
	if _, err := fleet.Run(context.Background(), Request{Protocol: "no-such"}); !errors.As(err, &reqErr) {
		t.Fatalf("unknown protocol: err = %v, want *RequestError", err)
	}
	if err := fleet.Ready(); err != nil {
		t.Fatalf("Ready on a live fleet: %v", err)
	}
	fleet.Close()
	_, err = fleet.Run(context.Background(),
		Request{Protocol: "sym-dmam", N: 4, Edges: edgesOf(graph.Cycle(4)), Options: Options{Seed: 1}})
	var rerr *network.RunError
	if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
		t.Fatalf("run on closed fleet: err = %v, want PhaseTransport RunError", err)
	}
}
