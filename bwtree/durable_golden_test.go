package bwtree

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/wal"
)

// goldenShapes names the store shapes TestDurableOnDiskGolden covers, each
// with its reference directory under testdata/golden.
var goldenShapes = []struct {
	name string
	o    DurableOptions
}{
	{"one-tree", DurableOptions{}},
	{"two-partitions", DurableOptions{Router: lastDigitRouter(2)}},
}

// goldenHistory runs the scripted single-goroutine history against a
// store in dir and returns the model of what it holds afterwards:
// single-key inserts, updates and deletes (a failed one of each among
// them), a transaction spanning both partitions of the two-partition
// shape, a checkpoint, more of the same, and Close.
func goldenHistory(t *testing.T, dir string, o DurableOptions) diffModel {
	d, err := OpenDurable(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	ds := d.NewSession()
	model := diffModel{}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	single := func(op byte, i int, v uint64) {
		k := key(i)
		var ok bool
		var err error
		switch op {
		case wal.OpInsert:
			ok, err = ds.Insert(k, v)
		case wal.OpUpdate:
			ok, err = ds.Update(k, v)
		case wal.OpDelete:
			ok, err = ds.Delete(k, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := model.apply(wal.TxnOp{Op: op, Key: k, Value: v}); ok != want {
			t.Fatalf("op %c %s returned %v, model says %v", op, k, ok, want)
		}
	}
	txn := func(id uint64, ops []wal.TxnOp) {
		if _, err := d.AppendTxn(id, ops); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			applyTxnOps(d.Trees()[d.owner(op.Key)], []wal.TxnOp{op})
			model.apply(op)
		}
	}

	for i := range 10 {
		single(wal.OpInsert, i, uint64(100+i))
	}
	single(wal.OpInsert, 3, 999) // fails: present
	single(wal.OpUpdate, 4, 204)
	single(wal.OpUpdate, 15, 999) // fails: absent
	single(wal.OpDelete, 5, 105)
	single(wal.OpDelete, 16, 999) // fails: absent
	// k11 and k07 end in odd digits and k02 in an even one, so on the
	// two-partition shape this write set spans both partitions.
	txn(1, []wal.TxnOp{
		{Op: wal.OpInsert, Key: key(11), Value: 311},
		{Op: wal.OpUpdate, Key: key(2), Value: 302},
		{Op: wal.OpDelete, Key: key(7)},
	})
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	single(wal.OpInsert, 12, 112)
	single(wal.OpUpdate, 11, 411)
	single(wal.OpDelete, 0, 100)
	single(wal.OpInsert, 5, 505)  // re-insert after delete
	single(wal.OpUpdate, 99, 999) // fails: absent
	txn(2, []wal.TxnOp{
		{Op: wal.OpInsert, Key: key(13), Value: 513},
		{Op: wal.OpDelete, Key: key(2)},
	})
	ds.Release()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return model
}

// readDir returns every file in dir by name, and the names in order.
func readDir(t *testing.T, dir string) (map[string][]byte, []string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files, names
}

// TestDurableOnDiskGolden runs a scripted history on each store shape and
// requires every file it leaves to match, byte for byte, the reference
// directory under testdata/golden, so a change to the durable layer's
// structure cannot change what it writes. It then recovers a copy of the
// reference directory and checks the contents against the script's model.
func TestDurableOnDiskGolden(t *testing.T) {
	for _, shape := range goldenShapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			model := goldenHistory(t, dir, shape.o)
			ref := filepath.Join("testdata", "golden", shape.name)
			got, names := readDir(t, dir)
			want, wantNames := readDir(t, ref)
			if !slices.Equal(names, wantNames) {
				t.Fatalf("files %v, reference has %v", names, wantNames)
			}
			for name, b := range got {
				if !bytes.Equal(b, want[name]) {
					t.Errorf("%s differs from the reference (%d bytes, reference %d)", name, len(b), len(want[name]))
				}
			}

			cp := t.TempDir()
			for name, b := range want {
				if err := os.WriteFile(filepath.Join(cp, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			d, err := OpenDurable(cp, shape.o)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if rs := d.RecoveryStats(); rs.MaxTxnID != 2 || rs.Replayed == 0 || rs.SnapshotKeys == 0 || rs.TornTail {
				t.Fatalf("recovery stats %+v", rs)
			}
			recovered := diffModel{}
			for p, tr := range d.Trees() {
				s := tr.NewSession()
				s.Scan([]byte{0}, len(model)+1, func(k []byte, v uint64) bool {
					if o := shape.o.Router; o != nil && o.Shard(k) != p {
						t.Errorf("key %s recovered into partition %d, routed to %d", k, p, o.Shard(k))
					}
					recovered[string(k)] = v
					return true
				})
				s.Release()
			}
			if !maps.Equal(recovered, model) {
				t.Fatalf("recovered %v, model %v", recovered, model)
			}
		})
	}
}
