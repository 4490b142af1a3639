package dip

import (
	"dip/internal/core"
	"dip/internal/network"
)

// BuildSpec rebuilds the named protocol's engine Spec from a Request
// without running it. This is the provisioning hook for peer processes: a
// dippeer fleet receives the coordinator's Request with the edge lists
// stripped (peers see only their own graph slice) and must still derive a
// byte-identical Spec locally. Only the fields that shape the spec itself
// matter — N (or Side/Half for dsym-dam), Marks for gni-marked, and the
// seed/repetitions options — and they are validated exactly as in Run,
// through the same cached constructors. PeerSpec, the builder dippeer
// installs, decodes a fleet run's params and calls BuildSpec, unless the
// params provision sym-dam's modulus.
func BuildSpec(req Request) (*network.Spec, error) {
	e, ok := registry[req.Protocol]
	if !ok {
		return nil, badRequestf("dip: unknown protocol %q (see dip.Protocols)", req.Protocol)
	}
	if err := e.validate(&req); err != nil {
		return nil, err
	}
	return e.spec(&req)
}

// cachedProto is cachedProtocol with the type assertion folded in.
func cachedProto[T any](key string, a, b, c, seed int64, build func() (any, error)) (T, error) {
	v, err := cachedProtocol(key, a, b, c, seed, build)
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// specOf adapts a protocol constructor into the registry's spec hook.
func specOf[T interface{ Spec() *network.Spec }](proto func(*Request) (T, error)) func(*Request) (*network.Spec, error) {
	return func(req *Request) (*network.Spec, error) {
		p, err := proto(req)
		if err != nil {
			return nil, err
		}
		return p.Spec(), nil
	}
}

// The proto* constructors are the single source of each protocol's cache
// key and instance parameters, shared by the run path and BuildSpec.

func protoSymDMAM(req *Request) (*core.SymDMAM, error) {
	return cachedProto[*core.SymDMAM]("proto/sym-dmam", int64(req.N), 0, 0, req.Options.Seed,
		func() (any, error) { return core.NewSymDMAM(req.N, req.Options.Seed) })
}

func protoSymDAM(req *Request) (*core.SymDAM, error) {
	return cachedProto[*core.SymDAM]("proto/sym-dam", int64(req.N), 0, 0, 0,
		func() (any, error) { return core.NewSymDAM(req.N, 0) })
}

func protoDSymDAM(req *Request) (*core.DSymDAM, error) {
	return cachedProto[*core.DSymDAM]("proto/dsym-dam", int64(req.Side), int64(req.Half), 0, req.Options.Seed,
		func() (any, error) { return core.NewDSymDAM(req.Side, req.Half, req.Options.Seed) })
}

func protoSymLCP(req *Request) (*core.SymLCP, error) {
	return cachedProto[*core.SymLCP]("proto/sym-lcp", int64(req.N), 0, 0, 0,
		func() (any, error) { return core.NewSymLCP(req.N) })
}

func protoSymRPLS(req *Request) (*core.SymRPLS, error) {
	return cachedProto[*core.SymRPLS]("proto/sym-rpls", int64(req.N), 0, 0, req.Options.Seed,
		func() (any, error) { return core.NewSymRPLS(req.N, req.Options.Seed) })
}

func protoGNIDAMAM(req *Request) (*core.GNIDAMAM, error) {
	k := resolveRepetitions(req.Options.Repetitions)
	return cachedProto[*core.GNIDAMAM]("proto/gni-damam", int64(req.N), int64(k), 0, req.Options.Seed,
		func() (any, error) { return core.NewGNIDAMAM(req.N, k, req.Options.Seed) })
}

func protoGNIGeneral(req *Request) (*core.GNIGeneral, error) {
	k := resolveRepetitions(req.Options.Repetitions)
	return cachedProto[*core.GNIGeneral]("proto/gni-general", int64(req.N), int64(k), 0, req.Options.Seed,
		func() (any, error) { return core.NewGNIGeneral(req.N, k, req.Options.Seed) })
}

func protoGNILCP(req *Request) (*core.GNILCP, error) {
	return cachedProto[*core.GNILCP]("proto/gni-lcp", int64(req.N), 0, 0, 0,
		func() (any, error) { return core.NewGNILCP(req.N) })
}

// decodeMarks validates a gni-marked request's marking and returns it in
// core form together with k, the size of each marked set — a spec
// parameter, which is why a peer rebuilding the spec needs Marks even
// though it never sees the edge lists. The two marked sets must have the
// same size: the protocol compares induced subgraphs on k vertices each.
func decodeMarks(req *Request) ([]core.Mark, int, error) {
	if len(req.Marks) != req.N {
		return nil, 0, badRequestf("dip: %d marks for %d nodes", len(req.Marks), req.N)
	}
	coreMarks := make([]core.Mark, req.N)
	var size [2]int
	for v, m := range req.Marks {
		switch m {
		case 0:
			coreMarks[v] = core.MarkZero
			size[0]++
		case 1:
			coreMarks[v] = core.MarkOne
			size[1]++
		case -1:
			coreMarks[v] = core.MarkNone
		default:
			return nil, 0, badRequestf("dip: mark %d at node %d (want 0, 1 or -1)", m, v)
		}
	}
	if size[0] != size[1] {
		return nil, 0, badRequestf("dip: marked sets have sizes %d and %d (want equal sizes)", size[0], size[1])
	}
	return coreMarks, size[0], nil
}

func protoGNIMarked(req *Request) (*core.MarkedGNI, error) {
	_, k, err := decodeMarks(req)
	if err != nil {
		return nil, err
	}
	reps := resolveRepetitions(req.Options.Repetitions)
	return cachedProto[*core.MarkedGNI]("proto/gni-marked", int64(req.N), int64(k), int64(reps), req.Options.Seed,
		func() (any, error) { return core.NewMarkedGNI(req.N, k, reps, req.Options.Seed) })
}
