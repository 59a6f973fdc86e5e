package main

import (
	"bytes"
	"encoding/binary"

	"repro/internal/ycsb"
)

// mix64 is the splitmix64 finaliser, a bijection on uint64: distinct
// inputs give distinct 8-byte Rand-Int keys, and unmix64 recovers the
// input, so an ordered sweep can check every pair against the mirrors
// without a map from key to index.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func unmix64(x uint64) uint64 {
	x = (x ^ x>>31 ^ x>>62) * 0x319642b2d24d8ec3
	x = (x ^ x>>27 ^ x>>54) * 0x96de1b173f119089
	x = x ^ x>>30 ^ x>>60
	return x - 0x9e3779b97f4a7c15
}

// keyspace is the seeded key population of one store plus the per-worker
// mirrors that make every read checkable. Key i is mix64(base+i). Worker
// w owns the indices i with i%clients == w and is the only writer of
// those keys, so vers[w][i/clients] is always the exact version the store
// must hold for key i; keys a worker does not own are checked for shape
// only (see value).
type keyspace struct {
	base    uint64
	n       uint64 // loaded population; request keys are drawn from [0, n)
	clients uint64
	vers    [][]uint32
}

func newKeyspace(seed uint64, n, clients int) *keyspace {
	ks := &keyspace{base: mix64(seed), n: uint64(n), clients: uint64(clients), vers: make([][]uint32, clients)}
	for w := range ks.vers {
		// Room for the inserts of a run, so appends rarely move the slice.
		ks.vers[w] = make([]uint32, 0, n/clients+1<<16)
	}
	return ks
}

func (ks *keyspace) key(buf []byte, i uint64) []byte {
	binary.BigEndian.PutUint64(buf[:8], mix64(ks.base+i))
	return buf[:8]
}

func (ks *keyspace) index(key []byte) uint64 {
	return unmix64(binary.BigEndian.Uint64(key)) - ks.base
}

// value is f(key, version): the version in the high half and the key's low
// four bytes in the low half, so any reader can tell a value belongs to
// the key it asked for and the key's owner can tell it is the latest.
func value(key []byte, ver uint32) uint64 {
	return uint64(ver)<<32 | uint64(binary.BigEndian.Uint32(key[4:8]))
}

// own maps a drawn index to the nearest index worker w owns.
func (ks *keyspace) own(w int, i uint64) uint64 {
	j := i - i%ks.clients + uint64(w)
	if j >= ks.n {
		j -= ks.clients
	}
	return j
}

// load puts worker w's share of the population at version 1 and returns
// how many puts were refused.
func (ks *keyspace) load(w int, put func(key []byte, val uint64) bool) (failed int) {
	var buf [8]byte
	for i := uint64(w); i < ks.n; i += ks.clients {
		ks.vers[w] = append(ks.vers[w], 1)
		if k := ks.key(buf[:], i); !put(k, value(k, 1)) {
			failed++
		}
	}
	return failed
}

// bump advances owned key i to its next version and returns the value to
// write.
func (ks *keyspace) bump(w int, i uint64, key []byte) uint64 {
	v := &ks.vers[w][i/ks.clients]
	*v++
	return value(key, *v)
}

// fresh allots worker w a key outside the population, at version 1.
func (ks *keyspace) fresh(w int) uint64 {
	i := uint64(len(ks.vers[w]))*ks.clients + uint64(w)
	ks.vers[w] = append(ks.vers[w], 1)
	return i
}

// expect returns what a read of key i by worker w must see: the exact
// value when w owns the key, otherwise any version of it.
func (ks *keyspace) expect(w int, i uint64, key []byte) (val uint64, exact bool) {
	if i%ks.clients == uint64(w) {
		return value(key, ks.vers[w][i/ks.clients]), true
	}
	return value(key, 1), false
}

func readOK(got []uint64, want uint64, exact bool) bool {
	if len(got) != 1 {
		return false
	}
	if exact {
		return got[0] == want
	}
	return uint32(got[0]) == uint32(want) && got[0]>>32 >= 1
}

func (ks *keyspace) live() int {
	n := 0
	for _, v := range ks.vers {
		n += len(v)
	}
	return n
}

// sweep checks an ordered walk of a quiescent store against the mirrors:
// keys strictly ascending, every pair a key some worker wrote at exactly
// its mirrored version, and as many pairs as there are live keys. It
// returns the pairs seen and how many of the checks failed.
func (ks *keyspace) sweep(walk func(visit func(k []byte, v uint64) bool)) (seen, bad int) {
	var prev [8]byte
	walk(func(k []byte, v uint64) bool {
		ok := len(k) == 8 && (seen == 0 || bytes.Compare(prev[:], k) < 0)
		if ok {
			i := ks.index(k)
			slots := ks.vers[i%ks.clients]
			ok = i/ks.clients < uint64(len(slots)) && v == value(k, slots[i/ks.clients])
		}
		if !ok {
			bad++
		}
		copy(prev[:], k)
		seen++
		return true
	})
	if seen != ks.live() {
		bad++
	}
	return seen, bad
}

// picker draws request indices in [0, n): scrambled-Zipfian or uniform,
// both from internal/ycsb.
type picker struct {
	n    int
	zipf *ycsb.ScrambledZipfian // nil = uniform
	rng  *ycsb.Rand
}

func newPicker(n int, uniform bool, seed uint64) *picker {
	p := &picker{n: n, rng: ycsb.NewRand(seed)}
	if !uniform {
		p.zipf = ycsb.NewScrambledZipfian(uint64(n), seed)
	}
	return p
}

func (p *picker) next() uint64 {
	if p.zipf != nil {
		return p.zipf.Next()
	}
	return uint64(p.rng.Intn(p.n))
}
