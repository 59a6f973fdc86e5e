package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// opScript is a randomly-generated operation sequence for quick.Check.
type opScript struct {
	ops []scriptOp
}

type scriptOp struct {
	kind uint8 // 0 insert, 1 delete, 2 update, 3 lookup
	key  uint16
	val  uint64
}

// Generate implements quick.Generator with small key spaces so splits,
// merges, and consolidations all trigger.
func (opScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := 2000 + r.Intn(3000)
	s := opScript{ops: make([]scriptOp, n)}
	for i := range s.ops {
		s.ops[i] = scriptOp{
			kind: uint8(r.Intn(4)),
			key:  uint16(r.Intn(600) + 1),
			val:  r.Uint64(),
		}
	}
	return reflect.ValueOf(s)
}

// TestQuickTreeMatchesMap: a tree configured with tiny nodes behaves
// exactly like a map under arbitrary operation sequences — the
// fundamental correctness property.
func TestQuickTreeMatchesMap(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 12
	opts.InnerNodeSize = 6
	opts.LeafChainLength = 5
	opts.InnerChainLength = 2
	opts.LeafMergeSize = 3
	opts.InnerMergeSize = 2

	f := func(script opScript) bool {
		tr := New(opts)
		defer tr.Close()
		s := tr.NewSession()
		defer s.Release()
		model := map[uint16]uint64{}
		for _, op := range script.ops {
			k := key64(uint64(op.key))
			switch op.kind {
			case 0:
				_, exists := model[op.key]
				if s.Insert(k, op.val) == exists {
					return false
				}
				if !exists {
					model[op.key] = op.val
				}
			case 1:
				_, exists := model[op.key]
				if s.Delete(k, 0) != exists {
					return false
				}
				delete(model, op.key)
			case 2:
				_, exists := model[op.key]
				if s.Update(k, op.val) != exists {
					return false
				}
				if exists {
					model[op.key] = op.val
				}
			default:
				want, exists := model[op.key]
				got := s.Lookup(k, nil)
				if exists != (len(got) == 1) || exists && got[0] != want {
					return false
				}
			}
		}
		if tr.Validate() != nil {
			return false
		}
		return tr.Count() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScanMatchesSortedModel: after any operation sequence, a full
// scan returns exactly the model's pairs in sorted key order.
func TestQuickScanMatchesSortedModel(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 16
	opts.LeafChainLength = 6
	opts.LeafMergeSize = 4

	f := func(script opScript) bool {
		tr := New(opts)
		defer tr.Close()
		s := tr.NewSession()
		defer s.Release()
		model := map[uint16]uint64{}
		for _, op := range script.ops {
			k := key64(uint64(op.key))
			switch op.kind {
			case 0:
				if s.Insert(k, op.val) {
					model[op.key] = op.val
				}
			case 1:
				s.Delete(k, 0)
				delete(model, op.key)
			case 2:
				if s.Update(k, op.val) {
					model[op.key] = op.val
				}
			}
		}
		var wantKeys []uint16
		for k := range model {
			wantKeys = append(wantKeys, k)
		}
		sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })

		i := 0
		ok := true
		s.Scan(key64(0), len(model)+10, func(k []byte, v uint64) bool {
			if i >= len(wantKeys) {
				ok = false
				return false
			}
			want := wantKeys[i]
			if !bytes.Equal(k, key64(uint64(want))) || v != model[want] {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok && i == len(wantKeys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSearchKeysInvariants: the binary-search helpers agree with a
// linear scan on arbitrary sorted inputs.
func TestQuickSearchKeys(t *testing.T) {
	f := func(raw []uint16, probe uint16) bool {
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		keys := make([][]byte, 0, len(raw))
		for i, v := range raw {
			if i > 0 && raw[i-1] == v {
				continue // unique
			}
			keys = append(keys, key64(uint64(v)))
		}
		k := key64(uint64(probe))
		pos, exact := searchKeys(keys, k)
		// Linear reference.
		lpos := 0
		for lpos < len(keys) && bytes.Compare(keys[lpos], k) < 0 {
			lpos++
		}
		lexact := lpos < len(keys) && bytes.Equal(keys[lpos], k)
		return pos == lpos && exact == lexact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWindowedSearchAgrees: the shortcut-window search returns the
// same result as the full search whenever the window brackets the key.
func TestQuickWindowedSearch(t *testing.T) {
	f := func(raw []uint16, probe uint16, loRaw, hiRaw uint8) bool {
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		keys := make([][]byte, 0, len(raw))
		for i, v := range raw {
			if i > 0 && raw[i-1] == v {
				continue
			}
			keys = append(keys, key64(uint64(v)))
		}
		k := key64(uint64(probe))
		full, fexact := searchKeys(keys, k)
		// Any window [lo, hi] that contains the true position must agree.
		lo := int(loRaw) % (full + 1)
		hi := full + int(hiRaw)%8
		lo, hi = clampWindow(lo, hi, len(keys))
		pos, exact := flatBaseFromKeys(keys).baseSearchRange(k, lo, hi)
		return pos == full && exact == fexact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNonUniqueMultiset: non-unique trees behave like a multiset of
// (key, value) pairs.
func TestQuickNonUniqueMultiset(t *testing.T) {
	opts := DefaultOptions()
	opts.NonUnique = true
	opts.LeafNodeSize = 16
	opts.LeafChainLength = 6

	type pair struct {
		K uint16
		V uint8 // small value space forces duplicate-pair collisions
	}
	f := func(ops []pair, deletes []pair) bool {
		tr := New(opts)
		defer tr.Close()
		s := tr.NewSession()
		defer s.Release()
		model := map[pair]bool{}
		for _, p := range ops {
			inserted := s.Insert(key64(uint64(p.K)+1), uint64(p.V))
			if inserted == model[p] {
				return false
			}
			model[p] = true
		}
		for _, p := range deletes {
			deleted := s.Delete(key64(uint64(p.K)+1), uint64(p.V))
			if deleted != model[p] {
				return false
			}
			delete(model, p)
		}
		// Verify per-key value sets.
		byKey := map[uint16]map[uint64]bool{}
		for p := range model {
			if byKey[p.K] == nil {
				byKey[p.K] = map[uint64]bool{}
			}
			byKey[p.K][uint64(p.V)] = true
		}
		for k, want := range byKey {
			got := s.Lookup(key64(uint64(k)+1), nil)
			if len(got) != len(want) {
				return false
			}
			for _, v := range got {
				if !want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
