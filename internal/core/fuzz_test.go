package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// FuzzTreeVsModel replays a byte-encoded operation stream against both
// the tree and a reference map model and fails on any divergence. The
// stream drives every public operation — insert, delete, update, lookup,
// scan — plus the batched entry points, in unique and non-unique mode
// and under both GC schemes, on a tree with tiny nodes so a few hundred
// keys force splits, merges, and consolidations.
//
// Stream format: byte 0 is a config header (bit 0 non-unique, bit 1
// centralized GC); the rest is a sequence of operations, each one opcode
// byte followed by its operands (see fuzzStep). Truncated operands end
// the stream. The opcode's low three bits pick the operation; bit 3 turns
// a lookup into LeafNodeSize (16) lookups of one key, which consolidate
// a chained leaf from the read path.
func FuzzTreeVsModel(f *testing.F) {
	f.Add([]byte{0x00})
	// A little of everything, unique + decentralized.
	f.Add(fuzzSeed(0x00))
	// Non-unique + centralized, and the two mixed combinations.
	f.Add(fuzzSeed(0x03))
	f.Add(fuzzSeed(0x01))
	f.Add(fuzzSeed(0x02))
	// The four leaf × inner layout combinations (bits 2 and 3 are
	// inverted: set means slice). 0x00 above is flat/flat.
	f.Add(fuzzSeed(0x04)) // slice leaf, flat inner
	f.Add(fuzzSeed(0x08)) // flat leaf, slice inner
	f.Add(fuzzSeed(0x0C)) // slice leaf, slice inner
	f.Add(fuzzSeed(0x0D)) // slice/slice + non-unique
	f.Fuzz(func(t *testing.T, data []byte) {
		runFuzzStream(t, data)
	})
}

// fuzzSeed builds a deterministic seed stream under config header hdr:
// enough inserts to split leaves, then a mix of every opcode.
func fuzzSeed(hdr byte) []byte {
	s := []byte{hdr}
	put := func(bs ...byte) { s = append(s, bs...) }
	for i := 0; i < 120; i++ {
		k := i * 7 % 512
		put(0, byte(k>>8), byte(k), byte(i)) // insert
	}
	for i := 0; i < 60; i++ {
		k := i * 11 % 512
		switch i % 5 {
		case 0:
			put(1, byte(k>>8), byte(k), byte(i)) // delete
		case 1:
			put(2, byte(k>>8), byte(k), byte(i)) // update
		case 2:
			put(3, byte(k>>8), byte(k)) // lookup
		case 3:
			put(4, byte(k>>8), byte(k), 17) // scan
		case 4:
			put(5, 3, // insert-batch of 4
				byte(k>>8), byte(k), byte(i),
				byte(k>>8), byte(k), byte(i+1),
				0, byte(i), byte(i),
				1, byte(i), byte(i))
		}
	}
	put(7, 3, 0, 1, 0, 2, 0, 3, 0, 4) // lookup-batch
	put(6, 1, 0, 1, 5, 0, 2, 6)       // delete-batch
	return s
}

// fuzzModel is the reference: key bytes -> set of values. Unique mode
// keeps each set at size <= 1.
type fuzzModel struct {
	nonUnique bool
	m         map[string]map[uint64]bool
}

func (fm *fuzzModel) insert(k string, v uint64) bool {
	set := fm.m[k]
	if fm.nonUnique {
		if set[v] {
			return false
		}
	} else if len(set) > 0 {
		return false
	}
	if set == nil {
		set = make(map[uint64]bool)
		fm.m[k] = set
	}
	set[v] = true
	return true
}

func (fm *fuzzModel) delete(k string, v uint64) bool {
	set := fm.m[k]
	if fm.nonUnique {
		if !set[v] {
			return false
		}
		delete(set, v)
	} else {
		if len(set) == 0 {
			return false
		}
		clear(set)
	}
	if len(set) == 0 {
		delete(fm.m, k)
	}
	return true
}

func (fm *fuzzModel) vals(k string) []uint64 {
	var out []uint64
	for v := range fm.m[k] {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// pairs returns every (key, value) with key >= start, ordered by key
// (values within a key sorted for comparison purposes).
func (fm *fuzzModel) pairs(start string) (keys []string, count int) {
	for k := range fm.m {
		if k >= start {
			keys = append(keys, k)
			count += len(fm.m[k])
		}
	}
	slices.Sort(keys)
	return keys, count
}

// fuzzKey maps a 16-bit key id to its byte-string form. Ids divisible by
// five get a suffix byte so the key set exercises prefix ordering.
func fuzzKey(id uint16) []byte {
	id %= 512
	var b [3]byte
	binary.BigEndian.PutUint16(b[:2], id)
	if id%5 == 0 {
		b[2] = byte(id)
		return b[:3]
	}
	return b[:2]
}

const fuzzMaxBatch = 8

func runFuzzStream(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	hdr := data[0]
	data = data[1:]
	opts := DefaultOptions()
	opts.NonUnique = hdr&1 != 0
	if hdr&2 != 0 {
		opts.GC = GCCentralized
	}
	// Bits 2 and 3 select the slice layout per level, so most of the
	// existing corpus (arbitrary header bytes) exercises both flat
	// layouts; all four leaf × inner combinations are reachable.
	opts.FlatBaseNodes = hdr&4 == 0
	opts.FlatInnerNodes = hdr&8 == 0
	opts.ScanPipelining = opts.anyFlatNodes()
	// Tiny nodes and short chains so a 512-key space drives splits,
	// merges, and consolidations.
	opts.LeafNodeSize = 16
	opts.InnerNodeSize = 8
	opts.LeafChainLength = 4
	opts.InnerChainLength = 2
	opts.LeafMergeSize = 4
	opts.InnerMergeSize = 2

	tree := New(opts)
	defer tree.Close()
	s := tree.NewSession()
	defer s.Release()
	fm := &fuzzModel{nonUnique: opts.NonUnique, m: make(map[string]map[uint64]bool)}

	for len(data) > 0 {
		var ok bool
		data, ok = fuzzStep(t, s, fm, data)
		if !ok {
			return
		}
	}

	// Final sweep: the tree and the model must agree on every key the
	// stream ever touched (misses included, via the full id space) and on
	// a full scan.
	for id := uint16(0); id < 512; id++ {
		k := fuzzKey(id)
		checkLookup(t, fm, string(k), s.Lookup(k, nil))
	}
	checkScan(t, s, fm, []byte{0}, 1<<30)
}

// fuzzStep decodes and executes one operation, returning the remaining
// stream. A truncated operand list ends the stream (ok=false) without
// failing.
func fuzzStep(t *testing.T, s *Session, fm *fuzzModel, data []byte) (rest []byte, ok bool) {
	op := data[0] % 8
	repeat := data[0]&8 != 0
	data = data[1:]
	need := func(n int) bool { return len(data) >= n }
	switch op {
	case 0, 1, 2: // insert / delete / update: key(2) value(1)
		if !need(3) {
			return nil, false
		}
		k := fuzzKey(binary.BigEndian.Uint16(data[:2]))
		v := uint64(data[2])
		data = data[3:]
		ks := string(k)
		switch op {
		case 0:
			if got, want := s.Insert(k, v), fm.insert(ks, v); got != want {
				t.Fatalf("Insert(%x, %d) = %v, model %v", k, v, got, want)
			}
		case 1:
			if got, want := s.Delete(k, v), fm.delete(ks, v); got != want {
				t.Fatalf("Delete(%x, %d) = %v, model %v", k, v, got, want)
			}
		case 2:
			if fm.nonUnique {
				// Non-unique Update replaces an unspecified visible pair;
				// use the exact-pair UpdateValue so the model stays
				// deterministic.
				want := fm.m[ks][v]
				if want {
					fm.delete(ks, v)
					fm.insert(ks, v+1)
				}
				if got := s.UpdateValue(k, v, v+1); got != want {
					t.Fatalf("UpdateValue(%x, %d, %d) = %v, model %v", k, v, v+1, got, want)
				}
			} else {
				want := len(fm.m[ks]) > 0
				if want {
					clear(fm.m[ks])
					fm.m[ks][v] = true
				}
				if got := s.Update(k, v); got != want {
					t.Fatalf("Update(%x, %d) = %v, model %v", k, v, got, want)
				}
			}
		}
	case 3: // lookup: key(2); with bit 3 set, LeafNodeSize lookups in a row
		if !need(2) {
			return nil, false
		}
		k := fuzzKey(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
		reads := 1
		if repeat {
			// Enough reads with no write between them to make the last
			// one consolidate the leaf (readDone).
			reads = s.t.opts.LeafNodeSize
		}
		for i := 0; i < reads; i++ {
			checkLookup(t, fm, string(k), s.Lookup(k, nil))
		}
	case 4: // scan: start(2) count(1)
		if !need(3) {
			return nil, false
		}
		k := fuzzKey(binary.BigEndian.Uint16(data[:2]))
		n := int(data[2]%32) + 1
		data = data[3:]
		checkScan(t, s, fm, k, n)
	case 5, 6: // insert-batch / delete-batch: m(1) then m x key(2) value(1)
		if !need(1) {
			return nil, false
		}
		m := int(data[0]%fuzzMaxBatch) + 1
		data = data[1:]
		if !need(3 * m) {
			return nil, false
		}
		keys := make([][]byte, m)
		vals := make([]uint64, m)
		for i := 0; i < m; i++ {
			keys[i] = fuzzKey(binary.BigEndian.Uint16(data[:2]))
			vals[i] = uint64(data[2])
			data = data[3:]
		}
		// Per-key results are order-independent across distinct keys, and
		// the batch is stable for equal keys, so the model applies the
		// pairs in submission order.
		want := make([]bool, m)
		for i := range keys {
			if op == 5 {
				want[i] = fm.insert(string(keys[i]), vals[i])
			} else {
				want[i] = fm.delete(string(keys[i]), vals[i])
			}
		}
		var got []bool
		if op == 5 {
			got = s.InsertBatch(keys, vals, nil)
		} else {
			got = s.DeleteBatch(keys, vals, nil)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch op %d [%d](%x, %d) = %v, model %v", op, i, keys[i], vals[i], got[i], want[i])
			}
		}
	case 7: // lookup-batch: m(1) then m x key(2)
		if !need(1) {
			return nil, false
		}
		m := int(data[0]%fuzzMaxBatch) + 1
		data = data[1:]
		if !need(2 * m) {
			return nil, false
		}
		keys := make([][]byte, m)
		for i := 0; i < m; i++ {
			keys[i] = fuzzKey(binary.BigEndian.Uint16(data[:2]))
			data = data[2:]
		}
		visited := make([]bool, m)
		s.LookupBatch(keys, func(i int, vals []uint64) {
			if visited[i] {
				t.Fatalf("LookupBatch visited %d twice", i)
			}
			visited[i] = true
			checkLookup(t, fm, string(keys[i]), vals)
		})
		for i, v := range visited {
			if !v {
				t.Fatalf("LookupBatch skipped index %d", i)
			}
		}
	}
	return data, true
}

func checkLookup(t *testing.T, fm *fuzzModel, k string, got []uint64) {
	t.Helper()
	gs := append([]uint64(nil), got...)
	slices.Sort(gs)
	want := fm.vals(k)
	if !slices.Equal(gs, want) {
		t.Fatalf("Lookup(%x) = %v, model %v", k, gs, want)
	}
}

// checkScan verifies a scan of up to n pairs from start: the visit count
// must match the model, keys must be non-decreasing, and every visited
// pair must exist in the model. Within-key value order is unspecified,
// so pairs are checked by membership plus a no-duplicates rule.
func checkScan(t *testing.T, s *Session, fm *fuzzModel, start []byte, n int) {
	t.Helper()
	_, total := fm.pairs(string(start))
	wantCount := min(n, total)
	seen := make(map[string]bool)
	var prev []byte
	count := s.Scan(start, n, func(k []byte, v uint64) bool {
		if prev != nil && bytes.Compare(k, prev) < 0 {
			t.Fatalf("scan went backwards: %x after %x", k, prev)
		}
		prev = append(prev[:0], k...)
		if !fm.m[string(k)][v] {
			t.Fatalf("scan visited (%x, %d) not in model", k, v)
		}
		pk := fmt.Sprintf("%x/%d", k, v)
		if seen[pk] {
			t.Fatalf("scan visited (%x, %d) twice", k, v)
		}
		seen[pk] = true
		return true
	})
	if count != wantCount || len(seen) != wantCount {
		t.Fatalf("Scan(%x, %d) visited %d (%d distinct), model %d", start, n, count, len(seen), wantCount)
	}
}
