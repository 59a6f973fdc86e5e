package ycsb

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// KeyType selects the key distribution of §5.1.
type KeyType int

const (
	// MonoInt is 64-bit monotonically increasing integers.
	MonoInt KeyType = iota
	// RandInt is 64-bit random integers.
	RandInt
	// Email is synthetic 32-byte email addresses, the stand-in for the
	// paper's real-world email trace (see DESIGN.md substitutions).
	Email
	// MonoHC is the high-contention generator of §6.2: every worker
	// produces monotonically increasing keys in real time (timestamp
	// counter + worker-id suffix), so all inserts hit the tree's right
	// edge.
	MonoHC
)

var keyTypeNames = map[KeyType]string{
	MonoInt: "Mono-Int", RandInt: "Rand-Int", Email: "Email", MonoHC: "Mono-HC",
}

func (k KeyType) String() string { return keyTypeNames[k] }

// emailUsers and emailDomains seed the synthetic email generator.
var emailUsers = []string{
	"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
	"ivan", "judy", "mallory", "niaj", "olivia", "peggy", "rupert", "sybil",
	"trent", "victor", "walter", "wendy", "xavier", "yolanda", "zach",
}

var emailDomains = []string{
	"example.com", "mail.net", "corp.org", "inbox.io", "db.edu",
	"post.dev", "web.co", "letters.us",
}

// emailKey builds a deterministic fixed-length 32-byte email for ordinal
// i, mixing in a hash so insertion order is unrelated to sort order.
func emailKey(i uint64) []byte {
	h := fnv64(i)
	user := emailUsers[h%uint64(len(emailUsers))]
	domain := emailDomains[(h>>8)%uint64(len(emailDomains))]
	s := fmt.Sprintf("%s%08d@%s", user, h%100000000, domain)
	key := make([]byte, 32)
	copy(key, s)
	for j := len(s); j < 32; j++ {
		key[j] = '.'
	}
	return key
}

// KeySet is the materialized load-phase key population: Keys[i] is the
// i-th key inserted during the Insert-only phase. All keys are distinct.
type KeySet struct {
	Type KeyType
	Keys [][]byte
	// nextExtra hands out keys beyond the loaded population for the
	// insert portion of YCSB-E and for Mono-HC.
	nextExtra atomic.Uint64
	// loadNext deals population keys to workers during the Insert-only
	// load phase (trace order, shared across workers).
	loadNext atomic.Uint64
}

// NextLoadKey deals the next unloaded population key, or nil once the
// population is exhausted.
func (ks *KeySet) NextLoadKey() []byte {
	i := ks.loadNext.Add(1) - 1
	if i < uint64(len(ks.Keys)) {
		return ks.Keys[i]
	}
	return nil
}

// NewKeySet builds n keys of the given type. For Mono-HC the set is
// seeded like Mono-Int (HC keys are generated at run time by HCKey).
func NewKeySet(t KeyType, n int) *KeySet {
	ks := &KeySet{Type: t, Keys: make([][]byte, n)}
	switch t {
	case MonoInt, MonoHC:
		for i := range ks.Keys {
			ks.Keys[i] = u64Key(uint64(i) << 16)
		}
	case RandInt:
		for i := range ks.Keys {
			// splitmix64 over distinct inputs yields distinct outputs.
			ks.Keys[i] = u64Key(fnv64(uint64(i)+1)<<16 | uint64(i)&0xffff)
		}
	case Email:
		seen := make(map[string]struct{}, n)
		j := uint64(0)
		for i := 0; i < n; {
			k := emailKey(j)
			j++
			if _, dup := seen[string(k)]; dup {
				continue
			}
			seen[string(k)] = struct{}{}
			ks.Keys[i] = k
			i++
		}
	}
	ks.nextExtra.Store(uint64(n))
	return ks
}

func u64Key(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// ExtraKey returns a fresh key not in the loaded population, for the
// insert portion of YCSB-E.
func (ks *KeySet) ExtraKey() []byte {
	i := ks.nextExtra.Add(1) - 1
	switch ks.Type {
	case MonoInt, MonoHC:
		return u64Key(i << 16)
	case RandInt:
		return u64Key(fnv64(i+1)<<16 | i&0xffff)
	default:
		// Emails: extend the ordinal space past the load phase; collisions
		// with loaded keys are possible but just make that insert a no-op,
		// matching YCSB's tolerance for failed inserts.
		return emailKey(i * 2654435761)
	}
}

// HCKey builds a high-contention key: a strictly increasing shared
// counter (the RDTSC stand-in) suffixed with the worker ID, so every
// worker inserts at the right edge of the key space (§6.2).
func (ks *KeySet) HCKey(worker int) []byte {
	t := ks.nextExtra.Add(1)
	return u64Key(t<<8 | uint64(worker)&0xff)
}
