package core

import (
	"bytes"
	"testing"
)

// halfMergeFixture builds a tree with several leaves, then manually
// drives a merge through Stage I only (∆remove posted, nothing else):
// the exact half-merged state a concurrent thread observes when it
// reaches the victim through a pre-SMO parent snapshot.
func halfMergeFixture(t *testing.T) (tr *Tree, s *Session, victimID nodeID, rm *delta, parentID nodeID, parentHead *delta) {
	t.Helper()
	opts := DefaultOptions()
	opts.LeafNodeSize = 8
	opts.InnerNodeSize = 64 // keep all leaves under one parent
	opts.LeafChainLength = 4
	opts.LeafMergeSize = 0 // no automatic merges
	tr = New(opts)
	s = tr.NewSession()
	for i := uint64(1); i <= 64; i++ {
		s.Insert(key64(i), i)
	}
	tr.ConsolidateAll()

	// Locate a middle leaf and its parent.
	var tv traversal
	if !s.descend(key64(30), &tv) {
		t.Fatal("descend failed")
	}
	if tv.head.lowKey == nil {
		t.Fatal("picked the leftmost leaf; adjust the probe key")
	}
	victimID, parentID, parentHead = tv.id, tv.parentID, tv.parentHead

	// Stage I by hand: post the ∆remove.
	head := tr.load(victimID)
	rm = &delta{kind: kRemove}
	rm.inheritFrom(head)
	if !tr.cas(victimID, head, rm) {
		t.Fatal("remove CAS failed")
	}
	return tr, s, victimID, rm, parentID, parentHead
}

// TestHelpMergeRedirects: with Stage II unposted, a traversal hitting
// the ∆remove must restart (only the initiator posts the ∆merge — see
// tryMerge); once the initiator's ∆merge is in place, helpers redirect
// to the absorbing left sibling, and lookups in the victim's range work.
func TestHelpMergeRedirects(t *testing.T) {
	tr, s, victimID, rm, parentID, parentHead := halfMergeFixture(t)
	defer tr.Close()
	defer s.Release()

	// Unposted Stage II: helpers must not act, only restart.
	if _, ok := s.helpMerge(parentID, parentHead, victimID, rm); ok {
		t.Fatal("helper acted on an unposted merge")
	}

	// Post Stage II the way the initiator does.
	leftID, _, ok := s.mergeIntoLeft(parentHead, victimID, rm)
	if !ok {
		t.Fatal("mergeIntoLeft failed")
	}
	lhead := tr.load(leftID)
	if lhead.kind != kMerge || lhead.deleteID != victimID {
		t.Fatalf("left head %v deleteID %d", lhead.kind, int64(lhead.deleteID))
	}
	if !bytes.Equal(lhead.highKey, rm.highKey) {
		t.Fatalf("merge high key %q want %q", lhead.highKey, rm.highKey)
	}

	// Helpers now redirect to the absorbing node.
	left2, ok := s.helpMerge(parentID, parentHead, victimID, rm)
	if !ok || left2 != leftID {
		t.Fatalf("redirect: %d %v", int64(left2), ok)
	}

	// The victim's keys remain reachable through the merged left node —
	// public lookups route via helpMerge on every traversal.
	for i := uint64(1); i <= 64; i++ {
		got := s.Lookup(key64(i), nil)
		if len(got) != 1 || got[0] != i {
			t.Fatalf("lookup %d during half-merge: %v", i, got)
		}
	}

	// Writes to the absorbed range land on the surviving node.
	if !s.Update(key64(30), 999) {
		t.Fatal("update in merged range failed")
	}
	if got := s.Lookup(key64(30), nil); len(got) != 1 || got[0] != 999 {
		t.Fatalf("after update: %v", got)
	}

	// Finish Stage III by hand so the structural validator passes:
	// replace the victim's separator with a ∆separator-delete.
	ph := tr.load(parentID)
	sd := newSMO(kInnerDelete)
	sd.inheritFrom(ph)
	sd.size = ph.size - 1
	sd.key = rm.lowKey
	sd.leftKey = parentHead.lowKey // left sibling is the leftmost child here? use routing instead
	lsep, ok := s.routeInnerLeft(parentHead, rm.lowKey)
	if !ok {
		t.Fatal("routeInnerLeft failed")
	}
	_ = lsep
	sd.leftKey = tr.load(leftID).lowKey
	sd.leftChild = leftID
	sd.nextKey = rm.highKey
	sd.offset = -1
	if !tr.cas(parentID, ph, sd) {
		t.Fatal("separator delete CAS failed")
	}
	tr.mt.Recycle(victimID)
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate after manual stage III: %v", err)
	}
}

// TestHelpMergeRejectsLeftmost: the leftmost node can never be merged;
// a ∆remove there (which tryMerge refuses to create) makes helpers bail
// out rather than misroute.
func TestHelpMergeRejectsLeftmost(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 8
	opts.LeafMergeSize = 0
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	for i := uint64(1); i <= 64; i++ {
		s.Insert(key64(i), i)
	}
	tr.ConsolidateAll()
	var tv traversal
	if !s.descend(key64(1), &tv) {
		t.Fatal("descend failed")
	}
	if tv.head.lowKey != nil {
		t.Fatal("expected the leftmost leaf")
	}
	rm := &delta{kind: kRemove}
	rm.inheritFrom(tv.head)
	if _, ok := s.helpMerge(tv.parentID, tv.parentHead, tv.id, rm); ok {
		t.Fatal("helpMerge accepted a leftmost victim")
	}
}

func TestUpdateValueNonUnique(t *testing.T) {
	opts := DefaultOptions()
	opts.NonUnique = true
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	k := []byte("key")
	for v := uint64(1); v <= 5; v++ {
		s.Insert(k, v)
	}
	// Replace pair (key,3) with (key,30).
	if !s.UpdateValue(k, 3, 30) {
		t.Fatal("UpdateValue failed")
	}
	got := s.Lookup(k, nil)
	if containsVal(got, 3) || !containsVal(got, 30) || len(got) != 5 {
		t.Fatalf("after update: %v", got)
	}
	// Updating a missing pair fails.
	if s.UpdateValue(k, 3, 40) {
		t.Fatal("UpdateValue of absent pair succeeded")
	}
	// Updating onto an existing value collapses to a delete.
	if !s.UpdateValue(k, 30, 5) {
		t.Fatal("UpdateValue onto existing failed")
	}
	got = s.Lookup(k, nil)
	if len(got) != 4 || containsVal(got, 30) {
		t.Fatalf("after collapsing update: %v", got)
	}
	// No-op update (old == new).
	if !s.UpdateValue(k, 5, 5) {
		t.Fatal("identity UpdateValue failed")
	}
}

func TestDumpAndKindString(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	for i := uint64(0); i < 300; i++ {
		s.Insert(key64(i), i)
	}
	out := tr.Dump()
	if len(out) == 0 || !bytes.Contains([]byte(out), []byte("LeafBase")) && !bytes.Contains([]byte(out), []byte("LeafInsert")) {
		t.Fatalf("dump:\n%s", out)
	}
	for k := kLeafBase; k <= kAbort; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if tr.Options().LeafNodeSize != DefaultOptions().LeafNodeSize {
		t.Fatal("Options accessor")
	}
	st := tr.Stats()
	_ = st.AbortRate()
	_ = st.InnerPreallocUtilization()
}
