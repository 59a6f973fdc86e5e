package ycsb

import "fmt"

// Workload identifies one of the paper's four workload mixes (§5.1).
type Workload int

const (
	// InsertOnly is the measured load phase.
	InsertOnly Workload = iota
	// ReadOnly is YCSB-C.
	ReadOnly
	// ReadUpdate is YCSB-A (50% read, 50% update).
	ReadUpdate
	// ScanInsert is YCSB-E (95% scan, 5% insert).
	ScanInsert
	// ReadMostly is YCSB-B (95% read, 5% update). Not part of the
	// paper's four-mix grid (AllWorkloads), so the Fig. 8-18 tables are
	// unchanged.
	ReadMostly
)

var workloadNames = map[Workload]string{
	InsertOnly: "Insert-only", ReadOnly: "Read-only",
	ReadUpdate: "Read/Update", ScanInsert: "Scan/Insert",
	ReadMostly: "Read-mostly",
}

func (w Workload) String() string { return workloadNames[w] }

// ParseWorkload converts a name like "a", "c", "e", or "insert".
func ParseWorkload(s string) (Workload, error) {
	switch s {
	case "insert", "load", "Insert-only":
		return InsertOnly, nil
	case "c", "read", "Read-only":
		return ReadOnly, nil
	case "a", "update", "Read/Update":
		return ReadUpdate, nil
	case "e", "scan", "Scan/Insert":
		return ScanInsert, nil
	case "b", "read-mostly", "Read-mostly":
		return ReadMostly, nil
	}
	return 0, fmt.Errorf("ycsb: unknown workload %q", s)
}

// AllWorkloads lists the four mixes in the paper's presentation order.
func AllWorkloads() []Workload {
	return []Workload{InsertOnly, ReadOnly, ReadUpdate, ScanInsert}
}

// RequestDist selects how a Stream draws request keys from the loaded
// population (YCSB's requestdistribution knob). The paper's mixes use
// Zipfian skew; uniform keeps the probe stream cold across the whole
// tree, which is the regime memory-layout experiments need (under skew
// most requests hit a handful of cache-resident nodes).
type RequestDist int

const (
	// DistZipfian is YCSB's scrambled-Zipfian default (theta 0.99).
	DistZipfian RequestDist = iota
	// DistUniform draws request keys uniformly from the population.
	DistUniform
)

var distNames = map[RequestDist]string{DistZipfian: "zipfian", DistUniform: "uniform"}

func (d RequestDist) String() string { return distNames[d] }

// ParseDist converts a name like "zipfian" or "uniform".
func ParseDist(s string) (RequestDist, error) {
	switch s {
	case "zipfian", "zipf", "":
		return DistZipfian, nil
	case "uniform":
		return DistUniform, nil
	}
	return 0, fmt.Errorf("ycsb: unknown request distribution %q (zipfian, uniform)", s)
}

// OpKind is a single generated operation's type.
type OpKind uint8

// Operation kinds produced by Stream.Next.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
)

// maxScanLen bounds YCSB-E scan lengths: uniform in [1, 96] gives the
// mean (~48) and standard deviation (~28) the paper reports for its
// scans (avg 48, σ 30.13).
const maxScanLen = 96

// Op is one generated operation.
type Op struct {
	Kind OpKind
	// Key is the target key (read/update/insert) or scan start key.
	Key []byte
	// Value accompanies updates and inserts.
	Value uint64
	// ScanLen is the number of items a scan should visit.
	ScanLen int
}

// Stream generates the operation sequence for one worker. Each worker
// owns a private Stream (generators are not concurrency-safe; the shared
// KeySet counter is).
type Stream struct {
	w      Workload
	ks     *KeySet
	worker int
	dist   RequestDist
	zipf   *ScrambledZipfian
	rng    *Rand
	seq    uint64
}

// NewStream returns worker's operation stream for workload w over the
// population ks, with the default Zipfian request distribution.
func NewStream(w Workload, ks *KeySet, worker int, seed uint64) *Stream {
	return NewStreamDist(w, ks, worker, seed, DistZipfian)
}

// NewStreamDist is NewStream with an explicit request distribution.
func NewStreamDist(w Workload, ks *KeySet, worker int, seed uint64, dist RequestDist) *Stream {
	return &Stream{
		w:      w,
		ks:     ks,
		worker: worker,
		dist:   dist,
		zipf:   NewScrambledZipfian(uint64(len(ks.Keys)), seed),
		rng:    NewRand(seed ^ 0xABCDEF),
	}
}

// pick draws one request key index from the population under the
// stream's distribution.
func (s *Stream) pick() uint64 {
	if s.dist == DistUniform {
		return uint64(s.rng.Intn(len(s.ks.Keys)))
	}
	return s.zipf.Next()
}

// Next produces the next operation.
func (s *Stream) Next() Op {
	switch s.w {
	case InsertOnly:
		if s.ks.Type == MonoHC {
			k := s.ks.HCKey(s.worker)
			return Op{Kind: OpInsert, Key: k, Value: s.seqVal()}
		}
		if k := s.ks.NextLoadKey(); k != nil {
			return Op{Kind: OpInsert, Key: k, Value: s.seqVal()}
		}
		return Op{Kind: OpInsert, Key: s.ks.ExtraKey(), Value: s.seqVal()}
	case ReadOnly:
		return Op{Kind: OpRead, Key: s.ks.Keys[s.pick()]}
	case ReadUpdate:
		if s.rng.Uint64()&1 == 0 {
			return Op{Kind: OpRead, Key: s.ks.Keys[s.pick()]}
		}
		return Op{Kind: OpUpdate, Key: s.ks.Keys[s.pick()], Value: s.seqVal()}
	case ReadMostly:
		if s.rng.Intn(100) < 5 {
			return Op{Kind: OpUpdate, Key: s.ks.Keys[s.pick()], Value: s.seqVal()}
		}
		return Op{Kind: OpRead, Key: s.ks.Keys[s.pick()]}
	default: // ScanInsert
		if s.rng.Intn(100) < 5 {
			return Op{Kind: OpInsert, Key: s.ks.ExtraKey(), Value: s.seqVal()}
		}
		return Op{
			Kind:    OpScan,
			Key:     s.ks.Keys[s.pick()],
			ScanLen: 1 + s.rng.Intn(maxScanLen),
		}
	}
}

func (s *Stream) seqVal() uint64 {
	s.seq++
	return uint64(s.worker)<<48 | s.seq
}
