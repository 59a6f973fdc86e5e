//go:build smoracebug

package core

// Red self-tests of the schedule harness, mirroring PR 2's smobug
// pattern: build with -tags smoracebug to compile out the SMO race
// guards (raceguard_off.go) and these tests must reproduce ALL the
// failure modes of the high-pressure bug deterministically — modes (a)
// and (b) of the unposted-separator race plus mode (c), the
// folded-split tail — proving the harness replays the real races, not
// strawmen. The normal build runs the green half
// (schedule_smo_green_test.go) instead.
//
//	go test -tags smoracebug -run TestScheduleRed ./internal/core/

import (
	"strings"
	"testing"
)

func TestScheduleRedUnpostedSeparator(t *testing.T) {
	out := runUnpostedSeparatorRace(t)
	if out.mergeLocks == 0 {
		t.Fatalf("scenario never attempted to merge the unposted sibling %d", out.victim)
	}
	if out.merges == 0 {
		t.Fatalf("unguarded tree refused the bogus merge; the harness no longer reproduces the race")
	}
	// Mode (a): the merge posted a ∆separator-delete for a separator
	// that was never posted, so the parent's size attribute undercounts
	// its materialized content — the lost-∆delete signature.
	if out.errAfterMerge == nil {
		t.Fatalf("expected the lost-∆delete validation failure after merging the unposted sibling")
	}
	if !strings.Contains(out.errAfterMerge.Error(), "size attribute") {
		t.Errorf("mode (a) error = %q, want a size-attribute undercount", out.errAfterMerge)
	}
	t.Logf("mode (a) reproduced: %v", out.errAfterMerge)
	// Mode (b): the delayed Stage III post installed a route to the
	// merged-away node — the poisoned state behind the all-workers
	// wedge (the autopsy's "nil mapping entry" route).
	if !out.routeDangling {
		t.Errorf("expected a dangling route to the dead sibling after the late separator post")
	}
	t.Logf("mode (b): validate=%v dangling=%v", out.errAfterPost, out.routeDangling)
}

// TestScheduleRedFoldedSplitTail proves the folded-split-tail harness
// replays the real mode (c) corruption: with the guards compiled out,
// the drained victim of a folded-but-unposted split is merged away and
// the parent's base separator keeps routing the tail of the range into
// the recycled node — the permanent stale route behind the all-workers
// soak livelock.
func TestScheduleRedFoldedSplitTail(t *testing.T) {
	out := runFoldedSplitTailRace(t)
	if out.sepFails == 0 {
		t.Fatal("scenario never failed a separator post; the split was not left unposted")
	}
	if out.mergeLocks == 0 {
		t.Fatalf("scenario never attempted to merge the folded victim %d", out.victim)
	}
	if out.merges == 0 {
		t.Fatalf("unguarded tree refused the bogus merge; the harness no longer reproduces mode (c)")
	}
	if !out.tailDangling {
		t.Errorf("expected the tail route %d → recycled victim after the merge", out.splitKey)
	}
	t.Logf("mode (c) reproduced: merges=%d validate=%v dangling=%v",
		out.merges, out.errAfterDrain, out.tailDangling)
}
