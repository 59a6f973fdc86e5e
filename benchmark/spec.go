package main

// This file is the benchmark's contract in Go: the workloads, the metrics
// with unit, direction and bound, and for each workload the tree of spans
// its latency budget is read from. BENCHMARK.json at the repository root
// repeats the names; the smoke test fails if the two disagree.

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is how far the median may worsen, as a share of the parent's
	// median, before a change is a regression; Abs is a floor under it in
	// the metric's own unit. Per-layer metrics have neither.
	Bound, Abs float64
	// Workloads that produce the metric; nil means all.
	Workloads []string
	// Moves names, for a per-layer metric, the end-to-end metric it should
	// move and on which workload.
	Moves string
}

// endToEnd are the metrics every workload produces; BENCHMARK.json lists
// them under end_to_end.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Abs: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_bytes_per_key", Unit: "B", Better: "lower", Bound: 0.15},
}

// scoped are end-to-end metrics the driver cannot gate: ones only some
// workloads produce, for which BENCHMARK.json has no place, one that is 0
// on a correct run, and one too noisy for any bound. The untraced run
// prints them and `compare` holds them to their bounds; in BENCHMARK.json
// they sit in the per_layer list, and the traced run reports them too.
var scoped = []metricSpec{
	// p99_us comes from every workload but cannot hold any bound the
	// format allows: a neighbour on the host can sit on a whole run, and the
	// p99 of a 1.5 us in-process lookup then reads 60% higher (3 of the 10
	// mem-read runs of baseline set C), which alone is a spread of 49%.
	{Name: "p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Abs: 1e-4},
	{Name: "recovery_krec_per_s", Unit: "krec/s", Better: "higher", Bound: 0.25, Workloads: []string{"durable-write"}},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.25, Workloads: []string{"durable-write"}},
	{Name: "commit_ratio", Unit: "ratio", Better: "higher", Bound: 0.10, Workloads: []string{"txn-mix"}},
	{Name: "audit_commit_ratio", Unit: "ratio", Better: "higher", Bound: 0.10, Workloads: []string{"txn-mix"}},
}

func lat(name, moves string) metricSpec {
	return metricSpec{Name: name, Unit: "us", Better: "lower", Moves: moves}
}

func cnt(name, unit, better, moves string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, Moves: moves}
}

// perLayer are the traced run's metrics.
var perLayer = []metricSpec{
	lat("net.echo_us", "floor under p50_us on wire-point; nothing in this repository moves it"),

	lat("bwproto.ping_us", "p50_us on wire-point"),
	lat("bwproto.ping_self_us", "p50_us on wire-point: framing and the reader-to-writer goroutine hand-off"),
	lat("bwproto.get_us", "p50_us on wire-point"),
	lat("bwproto.get_self_us", "p50_us on wire-point: decode, dispatch, encode"),
	lat("bwproto.set_us", "p50_us on wire-point, wire-scan"),
	lat("bwproto.set_self_us", "p50_us on wire-point, wire-scan"),
	lat("bwproto.batch_us", "ops_per_s on wire-pipe"),
	lat("bwproto.batch_self_us", "ops_per_s on wire-pipe: decode and encode of 1024 sub-operations"),
	lat("bwproto.scan_us", "ops_per_s on wire-scan"),
	lat("bwproto.scan_self_us", "ops_per_s on wire-scan: response encode"),
	lat("bwproto.commit_us", "none yet: txn-mix over the wire, traced run only"),
	lat("bwproto.commit_self_us", "none yet: txn-mix over the wire, traced run only"),
	cnt("bwproto.client_writes_per_op", "count", "lower", "p50_us on wire-point; far below 1 on wire-pipe"),
	cnt("bwproto.client_reads_per_op", "count", "lower", "p50_us on wire-point"),
	cnt("bwproto.server_reads_per_op", "count", "lower", "p50_us on wire-point"),
	cnt("bwproto.server_writes_per_op", "count", "lower", "p50_us on wire-point"),
	cnt("bwproto.bytes_per_op", "B", "lower", "ops_per_s on wire-pipe, wire-scan"),
	cnt("bwproto.frames_per_op", "count", "lower", "p50_us on wire-point"),
	cnt("bwproto.proto_errors", "count", "lower", "failed_ratio on every wire workload"),

	lat("shard.get_us", "p50_us on wire-point (about nothing)"),
	lat("shard.get_self_us", "p50_us on wire-point: routing"),
	lat("shard.set_us", "p50_us on wire-point, ops_per_s on txn-mix"),
	lat("shard.set_self_us", "p50_us on wire-point"),
	lat("shard.scan_us", "p50_us on wire-scan"),
	lat("shard.scan_self_us", "p50_us on wire-scan: merge and over-fetch from the other shard"),
	lat("shard.batch_us", "ops_per_s on wire-pipe"),
	lat("shard.batch_self_us", "ops_per_s on wire-pipe: 1024 routings"),
	cnt("shard.skew", "ratio", "lower", "ops_per_s on every sharded workload: busiest shard over the mean"),

	lat("txn.getversion_us", "ops_per_s on txn-mix"),
	lat("txn.getversion_self_us", "ops_per_s on txn-mix"),
	lat("txn.commit_us", "ops_per_s on txn-mix"),
	lat("txn.commit_self_us", "ops_per_s on txn-mix: stripe locks, validation, write resolution"),
	lat("txn.validate_p50_us", "ops_per_s on txn-mix"),
	cnt("txn.conflicts_per_kcommit", "count", "lower", "commit_ratio, audit_commit_ratio on txn-mix"),
	cnt("txn.readonly_share", "ratio", "higher", "audit_commit_ratio on txn-mix"),

	lat("bwtree.durable_set_us", "ops_per_s on durable-write"),
	lat("bwtree.durable_set_self_us", "ops_per_s on durable-write: stripe lock and bookkeeping"),
	lat("bwtree.sync_set_us", "none: fsync-bound and device-dependent, for information"),
	cnt("bwtree.checkpoint_s", "s", "lower", "p99_us on durable-write"),
	cnt("bwtree.recovery_snapshot_krec_per_s", "krec/s", "higher", "recovery_krec_per_s on durable-write"),
	cnt("bwtree.recovery_replay_krec_per_s", "krec/s", "higher", "recovery_krec_per_s on durable-write"),

	lat("wal.append_us", "ops_per_s on durable-write"),
	lat("wal.fsync_p50_us", "p99_us on durable-write"),
	lat("wal.fsync_p99_us", "p99_us on durable-write"),
	cnt("wal.batch_mean", "count", "higher", "ops_per_s on durable-write"),
	cnt("wal.syncs", "count", "lower", "ops_per_s on durable-write"),
	cnt("wal.bytes_per_rec", "B", "lower", "disk_bytes_per_user_byte on durable-write"),
	cnt("wal.queue_records_max", "count", "lower", "p99_us on durable-write"),
	cnt("wal.replay_krec_per_s", "krec/s", "higher", "recovery_krec_per_s on durable-write: log decode without tree apply"),

	lat("core.get_us", "ops_per_s on mem-read; at most 5% of wire-point"),
	lat("core.set_us", "ops_per_s on mem-update, durable-write"),
	lat("core.scan_us", "ops_per_s on wire-scan"),
	lat("core.batch_us", "ops_per_s on wire-pipe"),
	lat("core.batch_get_us", "ops_per_s on wire-pipe if the server used LookupBatch; per key"),
	cnt("core.aborts_per_kop", "count", "lower", "ops_per_s on mem-update"),
	cnt("core.cas_failures_per_kop", "count", "lower", "ops_per_s on mem-update"),
	cnt("core.consolidations_per_kop", "count", "lower", "ops_per_s on mem-update"),
	cnt("core.splits_per_kop", "count", "lower", "ops_per_s on durable-write, wire-scan"),
	cnt("core.merges_per_kop", "count", "lower", "none of the seven workloads deletes"),
	cnt("core.pointer_chases_per_op", "count", "lower", "ops_per_s on mem-read"),
	cnt("core.batch_leaf_hit_ratio", "ratio", "higher", "core.batch_get_us on wire-pipe"),
	cnt("core.leaf_chain_mean", "count", "lower", "ops_per_s on mem-read, heap_bytes_per_key"),
	cnt("core.inner_chain_mean", "count", "lower", "ops_per_s on mem-read"),
	cnt("core.height", "count", "lower", "ops_per_s on mem-read"),
	cnt("core.arena_bytes_per_key", "B", "lower", "heap_bytes_per_key"),
	cnt("core.gc_ptrs_per_leaf", "count", "lower", "p99_us everywhere, through collector work"),

	cnt("epoch.retired_per_kop", "count", "lower", "heap_bytes_per_key on mem-update"),
	cnt("epoch.reclaim_ratio", "ratio", "higher", "heap_bytes_per_key on mem-update"),
	cnt("epoch.lag_max", "count", "lower", "p99_us on mem-update"),

	cnt("rt.alloc_bytes_per_op", "B", "lower", "p99_us everywhere"),
	cnt("rt.allocs_per_op", "count", "lower", "p99_us everywhere"),
	cnt("rt.gc_cycles", "count", "lower", "p99_us everywhere"),
	cnt("rt.gc_pause_ms", "ms", "lower", "p99_us everywhere"),
	cnt("rt.cpu_s_per_mop", "s", "lower", "ops_per_s everywhere"),
	cnt("rt.sys_cpu_share", "ratio", "lower", "p50_us on wire-point: kernel time, not ours"),

	cnt("trace.overhead_ratio", "ratio", "higher", "none: traced over untraced rate at the end-to-end boundary"),
	lat("trace.outer_p50_us", "none: the traced end-to-end boundary's request median, to set against p50_us"),
}

func (m metricSpec) on(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// budgetNode is one span in a workload's latency budget. A node's self time
// is its own median minus weight x median of each child; a leaf is all
// self time. By construction the self times of a tree add up to its root.
type budgetNode struct {
	metric string // the span's median, <layer>.<op>_us
	self   string // where the self time is reported; "" for a leaf
	kids   []budgetKid
}

type budgetKid struct {
	weight float64
	node   *budgetNode
}

func leaf(metric string) *budgetNode { return &budgetNode{metric: metric} }

func node(metric string, kids ...budgetKid) *budgetNode {
	return &budgetNode{metric: metric, self: metric[:len(metric)-len("_us")] + "_self_us", kids: kids}
}

func kid(n *budgetNode) budgetKid { return budgetKid{1, n} }

// wireTree is a wire request over its layers: the socket floor, then the
// shard router, then the tree.
func wireTree(op string, net *budgetNode) *budgetNode {
	return node("bwproto."+op+"_us", kid(net), kid(node("shard."+op+"_us", kid(leaf("core."+op+"_us")))))
}

// An empty frame's round trip is the socket floor plus framing and the
// server's goroutine hand-off.
func pingNode() *budgetNode { return node("bwproto.ping_us", kid(leaf("net.echo_us"))) }

type workloadSpec struct {
	Name, Why string
	Keys      int // loaded population
	Every     int // one request in Every is timed
	CountReqs int // requests per client across which counters are read
	setup     func(config, int) (instance, error)
	budgets   []*budgetNode
}

var workloads = []workloadSpec{
	{
		Name: "mem-read", Keys: 1_000_000, Every: 64, CountReqs: 500_000,
		Why:     "core descent and chain walk do all the work and wal, shard, txn, bwproto none: the no-change control for everything above the tree",
		setup:   setupMem(mix{get: 100}),
		budgets: []*budgetNode{leaf("core.get_us")},
	},
	{
		Name: "mem-update", Keys: 1_000_000, Every: 64, CountReqs: 500_000,
		Why:     "the tree used the other way: delta prepend, consolidation, CAS retries, epoch reclamation; shows a layout that makes consolidation dearer",
		setup:   setupMem(mix{get: 50, update: 50}),
		budgets: []*budgetNode{leaf("core.get_us"), leaf("core.set_us")},
	},
	{
		Name: "wire-point", Keys: 100_000, Every: 1, CountReqs: 20_000,
		Why:     "one frame per operation on a small store: the kernel and bwproto do about 85% of the work, so a core speed-up must not move it",
		setup:   setupWire(wireSpec{mix: mix{get: 95, update: 5, uniform: true}, ping: true, echoReq: 19, echoResp: 19}),
		budgets: []*budgetNode{wireTree("get", pingNode()), wireTree("set", pingNode())},
	},
	{
		Name: "wire-pipe", Keys: 1_000_000, Every: 1, CountReqs: 300,
		Why:     "the same wire layer with the syscalls amortised over 1024-operation batch frames, so the tree's per-operation cost and decode/encode show; a point-path fix that adds per-frame work loses here",
		setup:   setupWire(wireSpec{mix: mix{get: 95, update: 5, frame: 1024}, echoReq: 11700, echoResp: 10800}),
		budgets: []*budgetNode{wireTree("batch", leaf("net.echo_us"))},
	},
	{
		Name: "wire-scan", Keys: 1_000_000, Every: 1, CountReqs: 15_000,
		Why:     "95% range scans of 1-100 pairs: the only workload where scatter-gather merge, the core iterator and response encoding each carry a large share",
		setup:   setupWire(wireSpec{mix: mix{insert: 5}, echoReq: 23, echoResp: 923}),
		budgets: []*budgetNode{wireTree("scan", leaf("net.echo_us")), wireTree("set", leaf("net.echo_us"))},
	},
	{
		Name: "durable-write", Keys: 500_000, Every: 64, CountReqs: 200_000,
		Why:     "inserts and updates through the Durable facade with async group commit and a checkpoint per segment, then crash and recovery: wal append and stripe locks dominate",
		setup:   setupDurable,
		budgets: []*budgetNode{node("bwtree.durable_set_us", kid(leaf("wal.append_us")), kid(leaf("core.set_us")))},
	},
	{
		Name: "txn-mix", Keys: 50_000, Every: 64, CountReqs: 60_000,
		Why:   "90% two-account transfers, 10% eight-key read-only audits under OCC: validation and stripe locking dominate; the audits abort each other with no writer in sight",
		setup: setupTxn,
		budgets: []*budgetNode{
			node("bwproto.commit_us", kid(leaf("net.echo_us")),
				kid(node("txn.commit_us", budgetKid{2, node("shard.set_us", kid(leaf("core.set_us")))}))),
			node("txn.getversion_us", kid(node("shard.get_us", kid(leaf("core.get_us"))))),
		},
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// fillSelf writes every self time of the tree under n into m.
func (n *budgetNode) fillSelf(m map[string]float64) {
	if n.self == "" {
		return
	}
	self := m[n.metric]
	for _, k := range n.kids {
		self -= k.weight * m[k.node.metric]
		k.node.fillSelf(m)
	}
	m[n.self] = self
}

// budgetRow is one line of a rendered budget: a layer's self time and how
// many times the root pays it.
type budgetRow struct {
	Metric string
	Weight float64
	Value  float64
}

// rows flattens the tree under n; the weighted values add up to m[n.metric].
func (n *budgetNode) rows(m map[string]float64, weight float64, out []budgetRow) []budgetRow {
	name := n.self
	if name == "" {
		name = n.metric
	}
	out = append(out, budgetRow{name, weight, m[name]})
	for _, k := range n.kids {
		out = k.node.rows(m, weight*k.weight, out)
	}
	return out
}
