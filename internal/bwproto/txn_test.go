package bwproto

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/index"
)

func tkey(i uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return b[:]
}

// TestTxnRoundTrip drives the transactional opcodes through a real
// socket: versioned reads, a multi-key commit, first-committer-wins
// conflict, and the malformed-frame error path.
func TestTxnRoundTrip(t *testing.T) {
	_, addr := startServer(t, 4)
	c := dialConn(t, addr)

	// Absent key: found=false, version 0 — the observation a transaction
	// records to assert continued absence at commit.
	_, ver, found, err := c.GetVersion(tkey(1))
	if err != nil {
		t.Fatal(err)
	}
	if found || ver != 0 {
		t.Fatalf("absent key: found=%v ver=%d, want false/0", found, ver)
	}

	// Multi-key commit against the absence we just observed.
	res, err := c.CommitTxn(
		[]index.TxnRead{{Key: tkey(1), Ver: 0}},
		[]index.TxnWrite{
			{Op: index.TxnPut, Key: tkey(1), Value: 10},
			{Op: index.TxnPut, Key: tkey(2), Value: 20},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != index.TxnCommitted {
		t.Fatalf("commit status = %v", res.Status)
	}
	if len(res.WriteVers) != 2 || res.WriteVers[0] == 0 || res.WriteVers[1] == 0 {
		t.Fatalf("write versions = %v, want two non-zero stamps", res.WriteVers)
	}

	// The committed values are visible with the stamps the commit reported.
	v, ver1, found, err := c.GetVersion(tkey(1))
	if err != nil {
		t.Fatal(err)
	}
	if !found || v != 10 || ver1 != res.WriteVers[0] {
		t.Fatalf("key 1 = (%d, %d, %v), want (10, %d, true)", v, ver1, found, res.WriteVers[0])
	}

	// A stale read (the pre-commit version 0) must now conflict.
	res2, err := c.CommitTxn(
		[]index.TxnRead{{Key: tkey(1), Ver: 0}},
		[]index.TxnWrite{{Op: index.TxnPut, Key: tkey(3), Value: 30}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != index.TxnConflict {
		t.Fatalf("stale-read commit status = %v, want conflict", res2.Status)
	}
	if _, _, found, _ := c.GetVersion(tkey(3)); found {
		t.Fatal("conflicted transaction's write is visible")
	}

	// Duplicate write key is a client bug: StatusErr, connection survives.
	_, err = c.CommitTxn(nil, []index.TxnWrite{
		{Op: index.TxnPut, Key: tkey(9), Value: 1},
		{Op: index.TxnDel, Key: tkey(9)},
	})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("duplicate write key: err = %v, want RemoteError", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after StatusErr: %v", err)
	}

	// Deleting through a transaction removes the key atomically with the
	// rest of the write set.
	cur, curVer, _, err := c.GetVersion(tkey(2))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := c.CommitTxn(
		[]index.TxnRead{{Key: tkey(2), Ver: curVer}},
		[]index.TxnWrite{
			{Op: index.TxnDel, Key: tkey(2)},
			{Op: index.TxnPut, Key: tkey(4), Value: cur},
		},
	)
	if err != nil || res3.Status != index.TxnCommitted {
		t.Fatalf("move commit: %v %v", res3.Status, err)
	}
	if _, _, found, _ := c.GetVersion(tkey(2)); found {
		t.Fatal("transactional delete left the key behind")
	}
	if v, _, found, _ := c.GetVersion(tkey(4)); !found || v != cur {
		t.Fatalf("moved value = (%d, %v), want (%d, true)", v, found, cur)
	}
}

// TestTxnReadCountOverLimit sends an OpTxn frame announcing more reads
// than MaxTxnOps and carrying none: the server must refuse the count
// itself, before decoding a read, and keep the connection.
func TestTxnReadCountOverLimit(t *testing.T) {
	_, addr := startServer(t, 2)
	rc := dialRaw(t, addr)
	payload := binary.LittleEndian.AppendUint16(nil, MaxTxnOps+1)
	rc.send(append(frame(1, OpTxn, payload), frame(2, OpPing, nil)...))
	if msg := rc.expectErr(1); !strings.Contains(msg, "exceeds limit") {
		t.Fatalf("error %q, want the read count refused", msg)
	}
	if id, status, _, err := rc.recv(); err != nil || id != 2 || status != StatusOK {
		t.Fatalf("ping after error = (id=%d, status=0x%02x, err=%v), want OK", id, status, err)
	}
}
