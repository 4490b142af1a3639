package network

import (
	"bytes"
	"math/big"

	"dip/internal/wire"
)

// Memo is the run-scoped memo: one per run on each host, shared by every
// node that host plays. In an honest run many nodes do identical work —
// the labeling schemes hand every node the same advice, and Protocols 1
// and 2 have every node hash under the same echoed index — and a memo
// lets a host do that work once.
//
// A memo value is a pure function of the protocol instance and of its
// key, compared in full: a message's bits or a field element's value. It
// never depends on the node, its RNG or another node's view, so a node
// reading it learns nothing its own view could not compute; NodeView
// stays the locality boundary. A corrupted copy of a message differs in
// its bits, so it gets an entry of its own.
//
// The prover reaches the same memo through ProverView.Memo, and may fill
// it before any node reads it: in-process, the prover and the verifiers
// of one run share what both compute. The value is still one a node's own
// lookup would build, because the owner is a value the protocol instance
// keeps unexported and build is the instance's own function of the key;
// a prover cannot name the owner, so it can store only what the instance
// builds.
//
// A Memo holds at most MemoCap entries; past the cap a value is computed
// and returned but not stored. Every Host keeps one, pooled with it and
// emptied when its run ends: the run's own Host in-process, and a node
// host's behind a Transport (internal/peer: one per session). A nil *Memo
// stores nothing, so every lookup computes. A Memo is used from one
// goroutine at a time, like the Host that holds it: with
// Options.ProverTimeout the prover runs on a goroutine of its own, but the
// run waits for its response before it calls any node again, so prover
// and nodes never touch the memo at once (a prover that times out ends
// the run, and its state is not pooled).
type Memo struct {
	entries []memoEntry
}

// MemoCap bounds the entries of one Memo. An honest run needs one entry
// per memoized computation; the rest leave room for corrupted copies.
const MemoCap = 8

// MemoKey is a memo key: a message or a field element, compared in full.
type MemoKey struct {
	msg   wire.Message
	field *big.Int // nil for a message key
}

// MessageKey keys a memo value on every bit of m.
func MessageKey(m wire.Message) MemoKey { return MemoKey{msg: m} }

// FieldKey keys a memo value on the value of x.
func FieldKey(x *big.Int) MemoKey { return MemoKey{field: x} }

func (k MemoKey) equal(o MemoKey) bool {
	if (k.field == nil) != (o.field == nil) {
		return false
	}
	if k.field != nil {
		return k.field.Cmp(o.field) == 0
	}
	return k.msg.Bits == o.msg.Bits && bytes.Equal(k.msg.Data, o.msg.Data)
}

// clone copies the key's storage, so a stored key does not alias the
// caller's message or number.
func (k MemoKey) clone() MemoKey {
	if k.field != nil {
		return MemoKey{field: new(big.Int).Set(k.field)}
	}
	return MemoKey{msg: wire.Message{Data: bytes.Clone(k.msg.Data), Bits: k.msg.Bits}}
}

type memoEntry struct {
	owner any
	key   MemoKey
	val   any
}

// Memoize returns build(), computed at most once per (owner, key) while
// m lives and m has room. owner names the computation: a pointer to the
// protocol instance, or to a value it owns, that memoizes exactly one
// function of the key under it. build must be a pure function of the
// instance and the key. A hit allocates nothing; a miss stores a copy of
// the key.
func Memoize[V any](m *Memo, owner any, key MemoKey, build func() V) V {
	if m == nil {
		return build()
	}
	for i := range m.entries {
		if e := &m.entries[i]; e.owner == owner && e.key.equal(key) {
			return e.val.(V)
		}
	}
	v := build()
	if len(m.entries) < MemoCap {
		m.entries = append(m.entries, memoEntry{owner: owner, key: key.clone(), val: v})
	}
	return v
}

// reset empties the memo, keeping its storage for the next run.
func (m *Memo) reset() {
	clear(m.entries)
	m.entries = m.entries[:0]
}
