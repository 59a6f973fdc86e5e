// Package bwtree is the public API of the OpenBw-Tree: a lock-free,
// ordered, in-memory index mapping non-empty byte-string keys to 64-bit
// values, implemented after "Building a Bw-Tree Takes More Than Just Buzz
// Words" (SIGMOD 2018).
//
// # Model
//
// The tree never updates nodes in place. Mutations append delta records to
// a per-node chain and publish them with one compare-and-swap on a central
// mapping table; readers replay the chain. Chains are periodically
// consolidated into fresh immutable base nodes, and nodes split and merge
// through multi-stage lock-free protocols that concurrent threads help
// complete. Memory reclamation is epoch-based.
//
// # Usage
//
// All operations go through a per-goroutine Session:
//
//	t := bwtree.New(bwtree.DefaultOptions())
//	defer t.Close()
//
//	s := t.NewSession()
//	defer s.Release()
//
//	s.Insert([]byte("k"), 42)
//	vals := s.Lookup([]byte("k"), nil)
//
// Sessions bundle the goroutine's epoch-GC handle and scratch buffers; the
// Tree itself is safe for any number of concurrent sessions.
//
// Keys must be non-empty and binary-comparable (encode integers
// big-endian). Keys passed to mutating operations are copied; lookup keys
// are not retained.
//
// Set Options.NonUnique to store multiple values per key (§3.1 of the
// paper); iteration is available through Session.NewIterator and
// Session.Scan/ScanReverse (§3.2).
package bwtree

import "repro/internal/core"

// Tree is a lock-free Bw-Tree index. See the package documentation.
type Tree = core.Tree

// Session is a single goroutine's handle to a Tree.
type Session = core.Session

// Iterator supports ordered forward and backward traversal over a Tree.
type Iterator = core.Iterator

// Options configures a Tree. LeafNodeSize has two roles: a leaf splits
// past that many items, and the LeafNodeSize-th lookup of a leaf's delta
// chain with no write in between consolidates the leaf.
type Options = core.Options

// Stats is a point-in-time aggregate of a Tree's internal counters.
type Stats = core.Stats

// StructureStats summarizes node shapes and pre-allocation utilization
// (Table 2 of the paper).
type StructureStats = core.StructureStats

// GCScheme selects the epoch-based garbage-collection variant.
type GCScheme = core.GCScheme

// GC scheme values.
const (
	GCDecentralized = core.GCDecentralized
	GCCentralized   = core.GCCentralized
)

// PathStep is one hop of a diagnostic Tree.DescendPath walk.
type PathStep = core.PathStep

// FormatPath renders a Tree.DescendPath result as an indented
// multi-line dump, one hop per line.
func FormatPath(steps []PathStep) string { return core.FormatPath(steps) }

// New returns an empty tree configured by opts.
func New(opts Options) *Tree { return core.New(opts) }

// DefaultOptions is the OpenBw-Tree configuration from the paper's
// evaluation: every optimization on, decentralized GC.
func DefaultOptions() Options { return core.DefaultOptions() }

// BaselineOptions is the "good-faith original Bw-Tree" configuration:
// every optimization off, centralized GC.
func BaselineOptions() Options { return core.BaselineOptions() }
