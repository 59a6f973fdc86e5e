package core

// Sync-point schedule-control layer.
//
// This generalizes the CAS fault-injection hook (testhooks.go) from
// "make this CaS fail" to "observe and reorder the interesting instants
// of the SMO protocol". Every mapping-table publication, split/merge
// delta post, parent update, consolidation swap, delta prepend, and
// retry/spin edge announces itself through schedPoint just before it
// happens. A test installs a hook with SetSchedHook and can then:
//
//   - block the calling goroutine at a chosen point (building an exact
//     targeted interleaving out of channels), or
//   - hand control to CoopSched (coopsched.go), which serializes all
//     registered goroutines and explores seeded random PCT-style
//     schedules.
//
// This is how the once-in-45-seconds SMO races of zz_repro_test.go are
// replayed in milliseconds (schedule_smo_test.go), and it is permanent
// tooling: any future protocol change (the OCC-transactions roadmap
// item in particular) gets its interleavings pinned the same way.
//
// Production cost: one nil check of a package-level function variable
// per site — the same cost class as casFailHook, and nothing is
// allocated unless a hook is installed.

// SyncPoint names one instrumented instant of the write/SMO protocol.
// All points fire immediately BEFORE the action they name (so a hook
// that blocks there delays the action), except the *Spin/*Retry/
// SPBackoff points, which fire inside wait loops so a serializing
// scheduler regains control from goroutines that are waiting on
// somebody else's unfinished SMO.
type SyncPoint uint8

const (
	// SPLeafPrepend fires before a leaf delta (insert/delete/update)
	// is published onto node Node.
	SPLeafPrepend SyncPoint = iota
	// SPConsolidateSwap fires before a consolidated base replaces node
	// Node's chain.
	SPConsolidateSwap
	// SPSplitPublish fires after the new right sibling (Child) of a
	// split of Node has been built, before it is stored in the mapping
	// table (split Stage I).
	SPSplitPublish
	// SPSplitDelta fires before the ∆split publishing the half-split
	// of Node (Stage II); Child is the new right sibling.
	SPSplitDelta
	// SPSplitLeftFold fires before the split initiator folds Node's
	// left half into a consolidated base.
	SPSplitLeftFold
	// SPSplitRoot fires before an oversized root is replaced wholesale.
	SPSplitRoot
	// SPSepPost fires before a separator (Key → Child) is posted into
	// parent Node (split Stage III, both the initiator's post and a
	// traversal's help-along).
	SPSepPost
	// SPSepRetry fires on each retry round of postSeparator, after a
	// failed post or parent rediscovery; Child is the unposted node.
	SPSepRetry
	// SPMergeLock fires before a merge initiator write-locks parent
	// Node with a ∆abort (merge Stage 0); Child is the merge victim.
	SPMergeLock
	// SPMergeRemove fires before the ∆remove is published on the merge
	// victim Node (Stage I).
	SPMergeRemove
	// SPMergeDelta fires before the ∆merge absorbing Child is
	// published on left sibling Node (Stage II).
	SPMergeDelta
	// SPMergeUnlock fires before an abandoned merge retracts the
	// parent Node's ∆abort.
	SPMergeUnlock
	// SPRemoveRetract fires before a blocked merge retracts the
	// victim Node's ∆remove.
	SPRemoveRetract
	// SPSepDelete fires before the one-CaS ∆separator-delete +
	// parent-unlock of merge Stage III; Node is the parent, Child the
	// victim.
	SPSepDelete
	// SPDescendRemove fires when a traversal lands on ∆remove-headed
	// node Node and is about to help the merge along.
	SPDescendRemove
	// SPMergeLeftSpin fires inside mergeIntoLeft's wait loop while the
	// left sibling Node is locked by another SMO.
	SPMergeLeftSpin
	// SPBackoff fires inside every operation's restart loop after a
	// failed descent or lost CaS.
	SPBackoff
	// SPSeqClaim fires before an in-place update claims the sequence
	// word of the leaf base that answered its walk of node Node's chain,
	// to store Key's new value.
	SPSeqClaim
	// SPSeqStore fires inside an in-place update's section: the
	// sequence word is claimed and Key's value is not yet stored.
	SPSeqStore
	// SPSeqSpin fires inside the wait loops on a base's sequence word
	// (a claim, a seal or a versioned read that found a store inside).
	// Node is zero: the base does not know it.
	SPSeqSpin
	// SPSeal fires before a copy of a leaf base seals it against
	// in-place updates. Node is zero: the copy does not know it.
	SPSeal
	// SPSlabInstall fires before a writer publishes a slab on a marked
	// base at its first delta. Node is zero: the base does not know it.
	SPSlabInstall

	numSyncPoints
)

var syncPointNames = [numSyncPoints]string{
	SPLeafPrepend:     "LeafPrepend",
	SPConsolidateSwap: "ConsolidateSwap",
	SPSplitPublish:    "SplitPublish",
	SPSplitDelta:      "SplitDelta",
	SPSplitLeftFold:   "SplitLeftFold",
	SPSplitRoot:       "SplitRoot",
	SPSepPost:         "SepPost",
	SPSepRetry:        "SepRetry",
	SPMergeLock:       "MergeLock",
	SPMergeRemove:     "MergeRemove",
	SPMergeDelta:      "MergeDelta",
	SPMergeUnlock:     "MergeUnlock",
	SPRemoveRetract:   "RemoveRetract",
	SPSepDelete:       "SepDelete",
	SPDescendRemove:   "DescendRemove",
	SPMergeLeftSpin:   "MergeLeftSpin",
	SPBackoff:         "Backoff",
	SPSeqClaim:        "SeqClaim",
	SPSeqStore:        "SeqStore",
	SPSeqSpin:         "SeqSpin",
	SPSeal:            "Seal",
	SPSlabInstall:     "SlabInstall",
}

func (p SyncPoint) String() string {
	if int(p) < len(syncPointNames) {
		return syncPointNames[p]
	}
	return "SyncPoint(?)"
}

// PointInfo describes one sync-point crossing: which point, the logical
// node it concerns, the other node involved (a split's right sibling, a
// merge's victim — zero when there is none), and the separator/search
// key in flight (nil when there is none). Key aliases tree-internal
// memory and must not be mutated or retained past the hook call.
type PointInfo struct {
	Point SyncPoint
	Node  uint64
	Child uint64
	Key   []byte
}

// schedHook, when non-nil, is invoked at every sync point on the
// goroutine crossing it. Like casFailHook it is read without
// synchronization: install it before tree goroutines start and restore
// it after they are joined.
var schedHook func(PointInfo)

// schedPoint is the instrumentation shim. It must stay trivially
// inlinable — the production cost of the whole layer is this one
// predictable nil check.
func schedPoint(p SyncPoint, node, child nodeID, key []byte) {
	if schedHook != nil {
		schedEmit(p, node, child, key)
	}
}

//go:noinline
func schedEmit(p SyncPoint, node, child nodeID, key []byte) {
	schedHook(PointInfo{Point: p, Node: uint64(node), Child: uint64(child), Key: key})
}

// SetSchedHook installs hook as the global sync-point observer and
// returns a function restoring the previous one. The hook runs on the
// goroutine crossing the point and may block it (that is the point);
// it must not call back into the same Session, but MAY operate on the
// tree through other Sessions to inject a racing operation at an exact
// protocol instant.
func SetSchedHook(hook func(PointInfo)) (restore func()) {
	prev := schedHook
	schedHook = hook
	return func() { schedHook = prev }
}
