package histcheck

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Violation is one detected departure from sequential index semantics.
type Violation struct {
	// Kind classifies the violation: "duplicate-key", "duplicate-pair",
	// "scan-order", "scan-duplicate", "scan-phantom", "scan-skip",
	// "non-linearizable", or "checker-limit".
	Kind string
	// Key is the affected key (the scan start key for scan violations).
	Key string
	// Msg is a human-readable diagnosis.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s key=%x: %s", v.Kind, v.Key, v.Msg)
}

// memoLimit bounds the linearizer's memo table per key. Histories from the
// drivers in this repository stay far below it; blowing past it means the
// history is too concurrent per key to decide, which is reported rather
// than silently dropped.
const memoLimit = 1 << 22

// Check verifies a merged history against the sequential semantics of the
// index interface: per-key linearizability for point operations, plus
// order, membership, and completeness checks for scans.
//
// The checker is deterministic: the same history always yields the same
// verdicts in the same order.
//
// What it can catch: uniqueness violations (two concurrent inserts of one
// key both succeeding), lost updates (an acknowledged write that later
// reads miss), stale reads (a read returning a value overwritten by an
// operation that completed before the read began), phantom or duplicated
// keys in scans, keys skipped by a scan although stably present, and
// duplicate values under non-unique semantics.
//
// What it cannot catch: violations among operations the history never
// observed (the recorder must wrap every client), value staleness inside
// scans for keys under concurrent update (scan membership is checked, the
// visited value only for provenance), and cross-key ordering anomalies
// other than those visible through scans (per-key checking is complete for
// a map because keys are independent objects).
func Check(h *History) []Violation {
	var vs []Violation
	vs = append(vs, checkLookupShapes(h)...)
	vs = append(vs, checkScans(h)...)
	vs = append(vs, checkPointOps(h)...)
	return vs
}

// checkLookupShapes verifies structural properties of individual results
// that need no interleaving analysis.
func checkLookupShapes(h *History) []Violation {
	var vs []Violation
	for i := range h.Ops {
		op := &h.Ops[i]
		if op.Kind != OpLookup {
			continue
		}
		if !h.NonUnique && len(op.Vals) > 1 {
			vs = append(vs, Violation{Kind: "duplicate-key", Key: op.Key,
				Msg: fmt.Sprintf("unique-mode lookup returned %d values: %v (%v)", len(op.Vals), op.Vals, *op)})
			continue
		}
		if h.NonUnique && hasDupValue(op.Vals) {
			vs = append(vs, Violation{Kind: "duplicate-pair", Key: op.Key,
				Msg: fmt.Sprintf("lookup returned a value twice: %v (%v)", op.Vals, *op)})
		}
	}
	return vs
}

func hasDupValue(vals []uint64) bool {
	for i := 1; i < len(vals); i++ {
		for j := 0; j < i; j++ {
			if vals[i] == vals[j] {
				return true
			}
		}
	}
	return false
}

// checkPointOps groups insert/delete/update/lookup records by key and
// verifies each key's subhistory independently. Linearizability composes
// over independent objects, and each key of a map is one, so per-key
// verification loses nothing for point operations.
func checkPointOps(h *History) []Violation {
	byKey := map[string][]int{}
	for i := range h.Ops {
		if h.Ops[i].Kind == OpScan {
			continue
		}
		byKey[h.Ops[i].Key] = append(byKey[h.Ops[i].Key], i)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var vs []Violation
	for _, k := range keys {
		kc := &keyChecker{h: h, ops: byKey[k], memo: map[string]struct{}{}}
		if v := kc.check(); v != nil {
			vs = append(vs, *v)
		}
	}
	return vs
}

// keyChecker runs the Wing & Gong linearizability search over one key's
// subhistory: depth-first over all orderings consistent with the interval
// precedence order, memoized on (set of linearized ops, model state).
type keyChecker struct {
	h    *History
	ops  []int // indices into h.Ops, Inv-ordered
	memo map[string]struct{}

	// Diagnostics: the deepest prefix the search managed to linearize and
	// the operations blocking it there.
	best          int
	bestFrontier  []int
	limitExceeded bool
}

func (kc *keyChecker) check() *Violation {
	n := len(kc.ops)
	remaining := newBitset(n)
	for i := 0; i < n; i++ {
		remaining.set(i)
	}
	kc.best = -1
	if kc.dfs(remaining, kc.initialState()) {
		return nil
	}
	key := kc.h.Ops[kc.ops[0]].Key
	if kc.limitExceeded {
		return &Violation{Kind: "checker-limit", Key: key,
			Msg: fmt.Sprintf("memo limit exceeded after linearizing %d/%d ops; history too dense to decide", kc.best, n)}
	}
	frontier := ""
	for i, oi := range kc.bestFrontier {
		if i == 6 {
			frontier += " ..."
			break
		}
		frontier += fmt.Sprintf(" {%v}", kc.h.Ops[oi])
	}
	return &Violation{Kind: "non-linearizable", Key: key,
		Msg: fmt.Sprintf("no linearization exists: %d/%d ops ordered, then stuck at%s", kc.best, n, frontier)}
}

// dfs reports whether the remaining operations can be linearized starting
// from state. An operation is a legal next choice iff no other remaining
// operation completed before it was invoked.
func (kc *keyChecker) dfs(remaining bitset, state []byte) bool {
	if remaining.empty() {
		return true
	}
	if len(kc.memo) > memoLimit {
		kc.limitExceeded = true
		return false
	}
	memoKey := string(remaining) + "\x00" + string(state)
	if _, seen := kc.memo[memoKey]; seen {
		return false
	}
	kc.memo[memoKey] = struct{}{}

	// minRet over remaining ops: any op invoked after it is preceded by
	// another remaining op and cannot be linearized first.
	minRet := ^uint64(0)
	for i := range kc.ops {
		if remaining.get(i) && kc.h.Ops[kc.ops[i]].Ret < minRet {
			minRet = kc.h.Ops[kc.ops[i]].Ret
		}
	}

	linearized := len(kc.ops) - remaining.count()
	if linearized > kc.best {
		kc.best = linearized
		kc.bestFrontier = kc.bestFrontier[:0]
		for i := range kc.ops {
			if remaining.get(i) && kc.h.Ops[kc.ops[i]].Inv < minRet {
				kc.bestFrontier = append(kc.bestFrontier, kc.ops[i])
			}
		}
	}

	for i := range kc.ops {
		if !remaining.get(i) {
			continue
		}
		op := &kc.h.Ops[kc.ops[i]]
		if op.Inv >= minRet {
			// ops is Inv-ordered: everything later is ineligible too.
			break
		}
		for _, next := range kc.apply(state, op) {
			rest := remaining.clone()
			rest.clear(i)
			if kc.dfs(rest, next) {
				return true
			}
		}
	}
	return false
}

func (kc *keyChecker) initialState() []byte {
	return nil // absent / empty value set
}

// apply returns every model state reachable by executing op from state
// with op's recorded outcome; an empty slice means the outcome is
// impossible from this state.
//
// Unique-mode state: nil for absent, else the 8-byte value.
// Non-unique-mode state: the sorted set of values, 8 bytes each.
func (kc *keyChecker) apply(state []byte, op *Record) [][]byte {
	if kc.h.NonUnique {
		return applyNonUnique(state, op)
	}
	return applyUnique(state, op)
}

func applyUnique(state []byte, op *Record) [][]byte {
	present := len(state) != 0
	var cur uint64
	if present {
		cur = binary.LittleEndian.Uint64(state)
	}
	same := [][]byte{state}
	switch op.Kind {
	case OpInsert:
		// Succeeds iff absent.
		if op.OK == present {
			return nil
		}
		if op.OK {
			return [][]byte{encodeVal(op.Value)}
		}
		return same
	case OpDelete:
		// Succeeds iff present; unique mode ignores the value argument.
		if op.OK != present {
			return nil
		}
		if op.OK {
			return [][]byte{nil}
		}
		return same
	case OpUpdate:
		// Succeeds iff present, replacing the value.
		if op.OK != present {
			return nil
		}
		if op.OK {
			return [][]byte{encodeVal(op.Value)}
		}
		return same
	case OpLookup:
		switch {
		case !present && len(op.Vals) == 0:
			return same
		case present && len(op.Vals) == 1 && op.Vals[0] == cur:
			return same
		}
		return nil
	}
	return nil
}

func applyNonUnique(state []byte, op *Record) [][]byte {
	set := decodeSet(state)
	same := [][]byte{state}
	has := func(v uint64) bool {
		for _, x := range set {
			if x == v {
				return true
			}
		}
		return false
	}
	switch op.Kind {
	case OpInsert:
		// Succeeds iff the exact pair is absent.
		if op.OK == has(op.Value) {
			return nil
		}
		if op.OK {
			return [][]byte{encodeSet(append(append([]uint64(nil), set...), op.Value))}
		}
		return same
	case OpDelete:
		if op.OK != has(op.Value) {
			return nil
		}
		if !op.OK {
			return same
		}
		return [][]byte{encodeSet(removeVal(set, op.Value))}
	case OpUpdate:
		// Replaces one (unspecified) existing pair; succeeds iff any pair
		// exists. The model branches over which pair was replaced.
		if op.OK != (len(set) > 0) {
			return nil
		}
		if !op.OK {
			return same
		}
		var out [][]byte
		for _, victim := range set {
			ns := removeVal(set, victim)
			dup := false
			for _, x := range ns {
				if x == op.Value {
					dup = true // replacing would duplicate an existing pair
				}
			}
			if !dup {
				out = append(out, encodeSet(append(ns, op.Value)))
			}
		}
		return out
	case OpLookup:
		if len(op.Vals) != len(set) {
			return nil
		}
		got := append([]uint64(nil), op.Vals...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		for i, v := range got {
			if set[i] != v {
				return nil
			}
		}
		return same
	}
	return nil
}

func encodeVal(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func decodeSet(state []byte) []uint64 {
	out := make([]uint64, 0, len(state)/8)
	for i := 0; i+8 <= len(state); i += 8 {
		out = append(out, binary.LittleEndian.Uint64(state[i:]))
	}
	return out
}

// encodeSet canonicalizes a value set (sorted, 8 bytes per value).
func encodeSet(vals []uint64) []byte {
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

func removeVal(set []uint64, v uint64) []uint64 {
	out := make([]uint64, 0, len(set))
	removed := false
	for _, x := range set {
		if !removed && x == v {
			removed = true
			continue
		}
		out = append(out, x)
	}
	return out
}

// bitset is a fixed-width bit vector stored as bytes so it can key a map
// directly.
type bitset []byte

func newBitset(n int) bitset    { return make(bitset, (n+7)/8) }
func (b bitset) set(i int)      { b[i/8] |= 1 << (i % 8) }
func (b bitset) clear(i int)    { b[i/8] &^= 1 << (i % 8) }
func (b bitset) get(i int) bool { return b[i/8]&(1<<(i%8)) != 0 }
func (b bitset) clone() bitset  { return append(bitset(nil), b...) }
func (b bitset) empty() bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
func (b bitset) count() int {
	n := 0
	for _, x := range b {
		for ; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}
