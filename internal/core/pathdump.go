package core

import (
	"fmt"
	"strings"
)

// Diagnostic path dump: the read-only descent walker originally grown
// inside the high-pressure reproducer (zz_repro_test.go) to autopsy
// wedged trees, promoted to a reusable debug surface. It is used by the
// reproducer's stall autopsy, the soak tests' stall detector, and
// bwtree-cli's "path" command.

// PathStep describes one hop of a diagnostic descent.
type PathStep struct {
	ID       int64
	Kind     string
	Depth    int
	Size     int
	LowKey   []byte
	HighKey  []byte
	RightSib int64
	Leaf     bool
	// Note is empty for an ordinary hop; otherwise it names the
	// anomaly (or terminal state) that ended the walk at this step.
	Note string
}

// DescendPath walks from the root toward the leaf covering key exactly
// as a traversal would — chain routing, sibling chases — but without
// helping SMOs, restarting, or giving up on poisoned nodes: it records
// every hop and stops AT the anomaly (nil mapping entry, ∆abort/∆remove
// head, routing dead end, hop cycle) instead of retrying past it. That
// makes it the tool for answering "why does every operation on this key
// restart forever": the last step's Note names the poisoned state.
//
// The walk is read-only and safe against concurrent writers (it holds
// an epoch guard), but the path it reports is a snapshot — on a healthy
// tree under churn, transient ∆abort/∆remove sightings are normal.
func (t *Tree) DescendPath(key []byte) []PathStep {
	s := t.NewSession()
	defer s.Release()
	s.h.Enter()
	defer s.h.Exit()

	var steps []PathStep
	id := t.root
	for hops := 0; hops < 128; hops++ {
		head := t.load(id)
		if head == nil {
			steps = append(steps, PathStep{ID: int64(id), Kind: "<nil>",
				Note: "nil mapping entry (dangling route to a recycled node)"})
			return steps
		}
		st := PathStep{
			ID: int64(id), Kind: head.kind.String(),
			Depth: int(head.depth), Size: int(head.size),
			LowKey: head.lowKey, HighKey: head.highKey,
			RightSib: int64(head.rightSib), Leaf: head.isLeaf,
		}
		switch head.kind {
		case kAbort:
			st.Note = "∆abort head: node is write-locked by a merge (transient unless permanent)"
			return append(steps, st)
		case kRemove:
			st.Note = "∆remove head: node is being merged into its left sibling"
			return append(steps, st)
		}
		if head.lowKey != nil && !keyGE(key, head.lowKey) {
			st.Note = "key below node's low key (stale route)"
			return append(steps, st)
		}
		if head.highKey != nil && keyGE(key, head.highKey) {
			if head.rightSib == invalidNode {
				st.Note = "key above high key but no right sibling"
				return append(steps, st)
			}
			st.Note = "chasing right sibling"
			steps = append(steps, st)
			id = head.rightSib
			continue
		}
		if head.isLeaf {
			st.Note = "reached leaf"
			return append(steps, st)
		}
		child, ok := s.routeInner(head, key)
		if !ok {
			st.Note = "inner routing dead end (unfinished split or poisoned chain)"
			return append(steps, st)
		}
		steps = append(steps, st)
		id = child
	}
	steps = append(steps, PathStep{ID: int64(id), Kind: "?", Note: "hop limit reached (routing cycle?)"})
	return steps
}

// FormatPath renders a DescendPath result as an indented multi-line
// dump, one hop per line.
func FormatPath(steps []PathStep) string {
	var b strings.Builder
	for _, st := range steps {
		fmt.Fprintf(&b, "  [%d] %s depth=%d size=%d low=%x high=%x sib=%d",
			st.ID, st.Kind, st.Depth, st.Size, st.LowKey, st.HighKey, st.RightSib)
		if st.Note != "" {
			fmt.Fprintf(&b, " — %s", st.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
