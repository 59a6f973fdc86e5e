package core

// This file exports the package's fault-injection point for external test
// packages (notably the history-checker integration tests, which cannot
// live in package core because histcheck imports core via the index
// adapters). Production code never calls anything here; the hook costs one
// nil check per mapping-table publication.

// CASInfo describes one attempted mapping-table publication, in terms
// stable enough for external packages: the logical node ID, the delta-kind
// names of the old and new chain heads ("Split", "Merge", "LeafBase", ...;
// see kindNames), and the child node ID routed by SMO deltas (zero
// otherwise).
type CASInfo struct {
	ID      uint64
	OldKind string
	NewKind string
	Child   uint64
}

// SetCASFailHook installs a global fault-injection hook consulted before
// every mapping-table CaS; returning true makes that CaS report failure
// without executing, deterministically driving the retry, help-along, and
// SMO-abandonment paths that normally need a racing thread. It returns a
// restore function that reinstates the previous hook.
//
// Two CaS classes are exempted and never see the hook: those whose
// expected old head is a ∆abort or a ∆remove. Both are ownership-
// guaranteed by the merge protocol — exactly one thread can own the
// parent-abort or the remove retraction, so the code (correctly) treats
// their failure as impossible and panics. Injecting failures there would
// fault a scenario the protocol rules out.
//
// The hook may be called from every tree goroutine concurrently; install
// it before workers start and restore it after they are joined.
func SetCASFailHook(hook func(CASInfo) bool) (restore func()) {
	prev := casFailHook
	if hook == nil {
		casFailHook = nil
		return func() { casFailHook = prev }
	}
	casFailHook = func(id nodeID, old, new *delta) bool {
		if old != nil && (old.kind == kAbort || old.kind == kRemove) {
			return false
		}
		info := CASInfo{ID: uint64(id)}
		if new.smoData != nil {
			info.Child = uint64(new.child)
		}
		if old != nil {
			info.OldKind = old.kind.String()
		}
		info.NewKind = new.kind.String()
		return hook(info)
	}
	return func() { casFailHook = prev }
}

// DeltaKindNames returns the printable names of the SMO delta kinds most
// useful to external fault schedules, in protocol order: ∆split,
// separator post (∆inner-insert), ∆abort, ∆remove, ∆merge, and separator
// delete (∆inner-delete).
func DeltaKindNames() (split, sepInsert, abort, remove, merge, sepDelete string) {
	return kSplit.String(), kInnerInsert.String(), kAbort.String(),
		kRemove.String(), kMerge.String(), kInnerDelete.String()
}
