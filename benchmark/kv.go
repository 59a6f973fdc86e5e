package main

import (
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/wal"
)

// kv is one worker's handle on one layer boundary. The same client code
// drives every boundary through it, so the request stream is identical
// whether it enters at the tree, the shard router or the socket.
type kv interface {
	get(key []byte, out []uint64) ([]uint64, error)
	update(key []byte, val uint64) (bool, error)
	insert(key []byte, val uint64) (bool, error)
	scan(start []byte, n int, visit func(k []byte, v uint64) bool) (int, error)
	batch(ops []bwproto.BatchOp) error
	release()
}

// seqBatch executes a frame's sub-operations one by one in frame order,
// which is what the wire server does with an OpBatch frame.
func seqBatch(k kv, ops []bwproto.BatchOp) (err error) {
	for i := range ops {
		op := &ops[i]
		switch op.Op {
		case bwproto.OpGet:
			op.Vals, err = k.get(op.Key, op.Vals[:0])
		case bwproto.OpUpd:
			op.OK, err = k.update(op.Key, op.Val)
		default:
			op.OK, err = k.insert(op.Key, op.Val)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// treeKV is the core boundary: bwtree.Session calls on the tree of the
// shard that owns the key (a single tree when router is nil). A scan
// walks the start key's own shard only; gathering the other shards is
// the shard layer's work.
type treeKV struct {
	subs   []*bwtree.Session
	router shard.Router
}

func newTreeKV(router shard.Router, trees ...*bwtree.Tree) *treeKV {
	t := &treeKV{router: router}
	for _, tr := range trees {
		t.subs = append(t.subs, tr.NewSession())
	}
	return t
}

func (t *treeKV) sub(key []byte) *bwtree.Session {
	if t.router == nil {
		return t.subs[0]
	}
	return t.subs[t.router.Shard(key)]
}

func (t *treeKV) get(key []byte, out []uint64) ([]uint64, error) {
	return t.sub(key).Lookup(key, out), nil
}
func (t *treeKV) update(key []byte, val uint64) (bool, error) {
	return t.sub(key).Update(key, val), nil
}
func (t *treeKV) insert(key []byte, val uint64) (bool, error) {
	return t.sub(key).Insert(key, val), nil
}
func (t *treeKV) scan(start []byte, n int, visit func(k []byte, v uint64) bool) (int, error) {
	return t.sub(start).Scan(start, n, visit), nil
}
func (t *treeKV) batch(ops []bwproto.BatchOp) error { return seqBatch(t, ops) }
func (t *treeKV) release() {
	for _, s := range t.subs {
		s.Release()
	}
}

// treeBatchKV answers a frame of gets through Session.LookupBatch, one
// call per shard: the tree's batch traversal cache, which the wire server
// does not use today.
type treeBatchKV struct {
	*treeKV
	keys [][][]byte
	at   [][]int
}

func (t *treeBatchKV) batch(ops []bwproto.BatchOp) error {
	if t.keys == nil {
		t.keys, t.at = make([][][]byte, len(t.subs)), make([][]int, len(t.subs))
	}
	for s := range t.subs {
		t.keys[s], t.at[s] = t.keys[s][:0], t.at[s][:0]
	}
	for i := range ops {
		s := 0
		if t.router != nil {
			s = t.router.Shard(ops[i].Key)
		}
		t.keys[s], t.at[s] = append(t.keys[s], ops[i].Key), append(t.at[s], i)
	}
	for s, sub := range t.subs {
		at := t.at[s]
		sub.LookupBatch(t.keys[s], func(i int, vals []uint64) {
			op := &ops[at[i]]
			op.Vals = append(op.Vals[:0], vals...)
		})
	}
	return nil
}

type shardKV struct{ s *shard.Session }

func (k shardKV) get(key []byte, out []uint64) ([]uint64, error) { return k.s.Lookup(key, out), nil }
func (k shardKV) update(key []byte, val uint64) (bool, error)    { return k.s.Update(key, val) }
func (k shardKV) insert(key []byte, val uint64) (bool, error)    { return k.s.Insert(key, val) }
func (k shardKV) scan(start []byte, n int, visit func(k []byte, v uint64) bool) (int, error) {
	return k.s.Scan(start, n, visit), nil
}
func (k shardKV) batch(ops []bwproto.BatchOp) error { return seqBatch(k, ops) }
func (k shardKV) release()                          { k.s.Release() }

type connKV struct{ c *bwproto.Conn }

func (k connKV) get(key []byte, out []uint64) ([]uint64, error) { return k.c.Lookup(key, out) }
func (k connKV) update(key []byte, val uint64) (bool, error)    { return k.c.Update(key, val) }
func (k connKV) insert(key []byte, val uint64) (bool, error)    { return k.c.Insert(key, val) }
func (k connKV) scan(start []byte, n int, visit func(k []byte, v uint64) bool) (int, error) {
	return k.c.Scan(start, n, visit)
}
func (k connKV) batch(ops []bwproto.BatchOp) error { return k.c.Batch(ops) }
func (k connKV) release()                          { k.c.Close() }

type durableKV struct{ s *bwtree.DurableSession }

func (k durableKV) get(key []byte, out []uint64) ([]uint64, error) { return k.s.Lookup(key, out), nil }
func (k durableKV) update(key []byte, val uint64) (bool, error)    { return k.s.Update(key, val) }
func (k durableKV) insert(key []byte, val uint64) (bool, error)    { return k.s.Insert(key, val) }
func (k durableKV) scan(start []byte, n int, visit func(k []byte, v uint64) bool) (int, error) {
	return k.s.Scan(start, n, visit), nil
}
func (k durableKV) batch(ops []bwproto.BatchOp) error { return seqBatch(k, ops) }
func (k durableKV) release()                          { k.s.Release() }

// walKV is the log on its own: a write is one wal.Writer.Append of the
// record the durable tree would log for it. It serves write-only streams.
type walKV struct{ w *wal.Writer }

func (k walKV) get([]byte, []uint64) ([]uint64, error) { panic("benchmark: read on the log boundary") }
func (k walKV) update(key []byte, val uint64) (bool, error) {
	_, err := k.w.Append(wal.OpUpdate, key, val)
	return err == nil, err
}
func (k walKV) insert(key []byte, val uint64) (bool, error) {
	_, err := k.w.Append(wal.OpInsert, key, val)
	return err == nil, err
}
func (k walKV) scan([]byte, int, func([]byte, uint64) bool) (int, error) {
	panic("benchmark: scan on the log boundary")
}
func (k walKV) batch(ops []bwproto.BatchOp) error { return seqBatch(k, ops) }
func (k walKV) release()                          {}

// spanKV records one span per call into the wrapped boundary.
type spanKV struct {
	kv
	rec                   *spanBuf
	nGet, nSet, nScan, nB uint8
}

// traced wraps k when rec is set. layer names the spans: <layer>.get, .set,
// .scan, .batch — or set alone when the layer has its own word for a write
// (wal.append, bwtree.durable_set).
func traced(k kv, rec *spanBuf, layer, set string) kv {
	if rec == nil {
		return k
	}
	if set == "" {
		set = layer + ".set"
	}
	return &spanKV{kv: k, rec: rec, nGet: spanName(layer + ".get"), nSet: spanName(set),
		nScan: spanName(layer + ".scan"), nB: spanName(layer + ".batch")}
}

func (s *spanKV) get(key []byte, out []uint64) ([]uint64, error) {
	t := time.Now()
	out, err := s.kv.get(key, out)
	s.rec.add(s.nGet, t)
	return out, err
}
func (s *spanKV) update(key []byte, val uint64) (bool, error) {
	t := time.Now()
	ok, err := s.kv.update(key, val)
	s.rec.add(s.nSet, t)
	return ok, err
}
func (s *spanKV) insert(key []byte, val uint64) (bool, error) {
	t := time.Now()
	ok, err := s.kv.insert(key, val)
	s.rec.add(s.nSet, t)
	return ok, err
}
func (s *spanKV) scan(start []byte, n int, visit func(k []byte, v uint64) bool) (int, error) {
	t := time.Now()
	got, err := s.kv.scan(start, n, visit)
	s.rec.add(s.nScan, t)
	return got, err
}
func (s *spanKV) batch(ops []bwproto.BatchOp) error {
	t := time.Now()
	err := s.kv.batch(ops)
	s.rec.add(s.nB, t)
	return err
}

// kvTxn replays a transaction's reads and writes on a boundary below the
// transaction engine: the same calls, none of the validation. A commit is
// one update per write.
type kvTxn struct {
	kv  kv
	out []uint64
}

func (t *kvTxn) GetVersion(key []byte) (uint64, uint64, bool, error) {
	out, err := t.kv.get(key, t.out[:0])
	t.out = out
	if err != nil || len(out) == 0 {
		return 0, 0, false, err
	}
	return out[0], 0, true, nil
}

func (t *kvTxn) CommitTxn(_ []index.TxnRead, writes []index.TxnWrite) (index.TxnResult, error) {
	for _, w := range writes {
		if _, err := t.kv.update(w.Key, w.Value); err != nil {
			return index.TxnResult{}, err
		}
	}
	return index.TxnResult{Status: index.TxnCommitted}, nil
}

func (t *kvTxn) Release() { t.kv.release() }

// connTxn makes a wire connection an index.TxnSession.
type connTxn struct{ *bwproto.Conn }

func (c connTxn) Release() { c.Close() }

// spanTxn records one span per call into the wrapped transaction session.
type spanTxn struct {
	index.TxnSession
	rec            *spanBuf
	nGetV, nCommit uint8
}

func tracedTxn(ts index.TxnSession, rec *spanBuf, layer string) index.TxnSession {
	if rec == nil {
		return ts
	}
	return &spanTxn{TxnSession: ts, rec: rec, nGetV: spanName(layer + ".getversion"), nCommit: spanName(layer + ".commit")}
}

func (s *spanTxn) GetVersion(key []byte) (uint64, uint64, bool, error) {
	t := time.Now()
	val, ver, found, err := s.TxnSession.GetVersion(key)
	s.rec.add(s.nGetV, t)
	return val, ver, found, err
}

func (s *spanTxn) CommitTxn(reads []index.TxnRead, writes []index.TxnWrite) (index.TxnResult, error) {
	t := time.Now()
	res, err := s.TxnSession.CommitTxn(reads, writes)
	s.rec.add(s.nCommit, t)
	return res, err
}
