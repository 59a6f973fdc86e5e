package ycsb

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
)

var workloadNames = map[Workload]string{
	InsertOnly: "Insert-only", ReadOnly: "Read-only",
	ReadUpdate: "Read/Update", ScanInsert: "Scan/Insert",
}

func (w Workload) String() string { return workloadNames[w] }

// AllWorkloads lists the four mixes in the paper's presentation order.
func AllWorkloads() []Workload {
	return []Workload{InsertOnly, ReadOnly, ReadUpdate, ScanInsert}
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
	zipf   *ScrambledZipfian
	rng    *Rand
	seq    uint64
}

// NewStream returns worker's operation stream for workload w over the
// population ks, drawing request keys from a scrambled Zipfian.
func NewStream(w Workload, ks *KeySet, worker int, seed uint64) *Stream {
	return &Stream{
		w:      w,
		ks:     ks,
		worker: worker,
		zipf:   NewScrambledZipfian(uint64(len(ks.Keys)), seed),
		rng:    NewRand(seed ^ 0xABCDEF),
	}
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
		return Op{Kind: OpRead, Key: s.ks.Keys[s.zipf.Next()]}
	case ReadUpdate:
		if s.rng.Uint64()&1 == 0 {
			return Op{Kind: OpRead, Key: s.ks.Keys[s.zipf.Next()]}
		}
		return Op{Kind: OpUpdate, Key: s.ks.Keys[s.zipf.Next()], Value: s.seqVal()}
	default: // ScanInsert
		if s.rng.Intn(100) < 5 {
			return Op{Kind: OpInsert, Key: s.ks.ExtraKey(), Value: s.seqVal()}
		}
		return Op{
			Kind:    OpScan,
			Key:     s.ks.Keys[s.zipf.Next()],
			ScanLen: 1 + s.rng.Intn(maxScanLen),
		}
	}
}

func (s *Stream) seqVal() uint64 {
	s.seq++
	return uint64(s.worker)<<48 | s.seq
}
