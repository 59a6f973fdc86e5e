package main

import (
	"bytes"

	"repro/internal/bwproto"
	"repro/internal/index"
	"repro/internal/txn"
	"repro/internal/ycsb"
)

// mix is a key-value request mix in percent; what is left of 100 after
// get, update and insert is scans. frame > 0 packs that many get/update
// sub-operations into each request.
type mix struct {
	get, update, insert int
	frame               int
	uniform             bool
}

const maxScanLen = 100

// kvClient is one closed-loop worker of a key-value workload. Its request
// stream depends only on (seed, worker), so a client built with the same
// arguments on another boundary issues the same requests.
type kvClient struct {
	w    int
	ks   *keyspace
	kv   kv
	mix  mix
	rng  *ycsb.Rand
	pick *picker

	buf   [8]byte
	out   []uint64
	prev  []byte
	ops   []bwproto.BatchOp // frame scratch
	keys  []byte            // frame key storage, 8 bytes per sub-operation
	want  []uint64
	exact []bool
}

func newKVClient(w int, seed uint64, ks *keyspace, k kv, m mix) *kvClient {
	s := mix64(seed + uint64(w))
	c := &kvClient{w: w, ks: ks, kv: k, mix: m, rng: ycsb.NewRand(s), pick: newPicker(int(ks.n), m.uniform, s^0x5bd1e995)}
	if m.frame > 0 {
		c.ops = make([]bwproto.BatchOp, m.frame)
		c.keys = make([]byte, 8*m.frame)
		c.want, c.exact = make([]uint64, m.frame), make([]bool, m.frame)
	}
	return c
}

func (c *kvClient) step() (ops, failed int) {
	if c.mix.frame > 0 {
		return c.frame()
	}
	ok := false
	switch r := c.rng.Intn(100); {
	case r < c.mix.get:
		i := c.pick.next()
		key := c.ks.key(c.buf[:], i)
		out, err := c.kv.get(key, c.out[:0])
		c.out = out
		want, exact := c.ks.expect(c.w, i, key)
		ok = err == nil && readOK(out, want, exact)
	case r < c.mix.get+c.mix.update:
		i := c.ks.own(c.w, c.pick.next())
		key := c.ks.key(c.buf[:], i)
		done, err := c.kv.update(key, c.ks.bump(c.w, i, key))
		ok = err == nil && done
	case r < c.mix.get+c.mix.update+c.mix.insert:
		key := c.ks.key(c.buf[:], c.ks.fresh(c.w))
		done, err := c.kv.insert(key, value(key, 1))
		ok = err == nil && done
	default:
		ok = c.scan()
	}
	if !ok {
		return 1, 1
	}
	return 1, 0
}

// scan reads 1..maxScanLen pairs from a population key and checks them:
// at least the start key itself, no more than asked, strictly ascending,
// none below the start, every value a version of its own key.
func (c *kvClient) scan() bool {
	start := c.ks.key(c.buf[:], c.pick.next())
	n := 1 + c.rng.Intn(maxScanLen)
	c.prev = append(c.prev[:0], start...)
	first, good := true, true
	got, err := c.kv.scan(start, n, func(k []byte, v uint64) bool {
		cmp := bytes.Compare(c.prev, k)
		if len(k) != 8 || cmp > 0 || (cmp == 0 && !first) || uint32(v) != uint32(value(k, 0)) || v>>32 == 0 {
			good = false
		}
		first = false
		c.prev = append(c.prev[:0], k...)
		return true
	})
	return err == nil && good && got >= 1 && got <= n
}

// frame sends one batch of get/update sub-operations. The server runs them
// in frame order, so a get after an update of the same key in one frame
// must see that update: want is captured while the frame is built.
func (c *kvClient) frame() (ops, failed int) {
	for j := range c.ops {
		op := &c.ops[j]
		key := c.keys[8*j : 8*j+8]
		if c.rng.Intn(100) < c.mix.get {
			i := c.pick.next()
			c.ks.key(key, i)
			op.Op, op.Key = bwproto.OpGet, key
			c.want[j], c.exact[j] = c.ks.expect(c.w, i, key)
		} else {
			i := c.ks.own(c.w, c.pick.next())
			c.ks.key(key, i)
			op.Op, op.Key, op.Val = bwproto.OpUpd, key, c.ks.bump(c.w, i, key)
		}
	}
	if err := c.kv.batch(c.ops); err != nil {
		return len(c.ops), len(c.ops)
	}
	for j := range c.ops {
		op := &c.ops[j]
		if op.Op == bwproto.OpGet && !readOK(op.Vals, c.want[j], c.exact[j]) || op.Op == bwproto.OpUpd && !op.OK {
			failed++
		}
	}
	return len(c.ops), failed
}

// bank constants of txn-mix.
const (
	bankInitial  = 1000 // opening balance of every account
	bankAuditPct = 10   // share of read-only audits
	bankAuditLen = 8    // keys an audit reads
	// bankAttempts is in effect unbounded. A conflict comes from a stripe the
	// other client holds, and an immediate retry finds it still held, so a
	// small budget is exhausted a few hundred times a run; the benchmark may
	// not fail operations, and what retries cost shows in p99_us. A request
	// that does exhaust it counts as failed.
	bankAttempts = 1 << 20
)

// bankClient is one closed-loop worker of txn-mix: transfers between two
// accounts and read-only audits, each one txn.RunTxn. Below the
// transaction engine (dry) the same reads and writes are issued without
// validation, so a transfer there moves nothing: with two clients an
// unvalidated read-modify-write would lose updates and break the balance
// sum the workload asserts.
type bankClient struct {
	ts       index.TxnSession
	ks       *keyspace
	accounts int
	dry      bool
	rng      *ycsb.Rand
	keys     [bankAuditLen][8]byte

	// first-attempt outcomes, [0] transfers and [1] audits
	first, firstOK [2]uint64
}

func newBankClient(w int, seed uint64, ks *keyspace, ts index.TxnSession, dry bool) *bankClient {
	return &bankClient{ts: ts, ks: ks, accounts: int(ks.n), dry: dry, rng: ycsb.NewRand(mix64(seed + uint64(w)))}
}

func (c *bankClient) step() (ops, failed int) {
	// Every random draw happens before RunTxn, so a retry re-runs the same
	// transaction and the stream does not depend on how many conflicts hit.
	kind, tries := 0, 0
	var fn func(tx *txn.Tx) error
	if c.rng.Intn(100) < bankAuditPct {
		kind = 1
		for j := range c.keys {
			c.ks.key(c.keys[j][:], uint64(c.rng.Intn(c.accounts)))
		}
		fn = func(tx *txn.Tx) error {
			tries++
			for j := range c.keys {
				if _, found, err := tx.Get(c.keys[j][:]); err != nil || !found {
					return errOr(err, errMissing)
				}
			}
			return nil
		}
	} else {
		from := c.rng.Intn(c.accounts)
		to := c.rng.Intn(c.accounts - 1)
		if to >= from {
			to++
		}
		amount := uint64(1 + c.rng.Intn(bankInitial/10))
		if c.dry {
			amount = 0
		}
		fk, tk := c.ks.key(c.keys[0][:], uint64(from)), c.ks.key(c.keys[1][:], uint64(to))
		fn = func(tx *txn.Tx) error {
			tries++
			fv, found, err := tx.Get(fk)
			if err != nil || !found {
				return errOr(err, errMissing)
			}
			tv, found, err := tx.Get(tk)
			if err != nil || !found {
				return errOr(err, errMissing)
			}
			move := amount
			if fv < move {
				move = fv
			}
			tx.Put(fk, fv-move)
			tx.Put(tk, tv+move)
			return nil
		}
	}
	res, err := txn.RunTxn(c.ts, bankAttempts, fn)
	committed := err == nil && res.Status == index.TxnCommitted
	c.first[kind]++
	if committed && tries == 1 {
		c.firstOK[kind]++
	}
	if !committed {
		return 1, 1
	}
	return 1, 0
}
