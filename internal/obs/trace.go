package obs

import (
	"encoding/json"
	"fmt"
)

// EventKind enumerates the structural events a session records.
type EventKind uint8

const (
	// EvSplit: a node published a ∆split (node = left, A = new right
	// sibling's ID, B = left-half item count).
	EvSplit EventKind = iota
	// EvMerge: a node was merged away (node = victim, A = absorbing left
	// sibling's ID).
	EvMerge
	// EvConsolidate: a chain was folded into a fresh base (node = ID,
	// A = chain depth folded, B = resulting item count).
	EvConsolidate
	// EvAbort: a traversal restarted from the root.
	EvAbort
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"split", "merge", "consolidate", "abort",
}

// String returns the kind's report name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind name produced by MarshalJSON.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range eventKindNames {
		if n == name {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", name)
}

// Event is one structural modification, recorded by Probe.Emit. Seq is
// drawn from the owning Deep's one counter, so sorting a drained batch by
// Seq reconstructs the tree-wide order in which events were initiated.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time int64     `json:"time_ns"` // obs.Now() at emission
	Kind EventKind `json:"kind"`
	Node uint64    `json:"node"`
	A    uint64    `json:"a,omitempty"`
	B    uint64    `json:"b,omitempty"`
}
