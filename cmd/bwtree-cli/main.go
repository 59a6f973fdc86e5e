// Command bwtree-cli is an interactive shell over a single OpenBw-Tree,
// useful for exploring the index's behaviour and internal statistics.
//
//	$ go run ./cmd/bwtree-cli
//	bw> put apple 1
//	OK
//	bw> scan a 10
//	apple = 1
//	bw> stats
//	...
//
// It also runs one-shot: `bwtree-cli [-json] [-load n] stats|shape`
// preloads n sequential keys and prints the tree's operation counters or
// node-shape statistics, aligned for terminals or as JSON for scripts.
//
// Commands: put/get/del/update/scan/rscan/count/stats/shape/dump/help/quit.
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/bwtree"
	"repro/internal/obs"
)

var jsonOut bool

func main() {
	args := os.Args[1:]
	load := 0
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		switch flag := strings.TrimLeft(args[0], "-"); {
		case flag == "json":
			jsonOut = true
			args = args[1:]
		case flag == "load":
			if len(args) < 2 {
				fmt.Fprintln(os.Stderr, "bwtree-cli: -load needs a count")
				os.Exit(2)
			}
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 0 {
				fmt.Fprintf(os.Stderr, "bwtree-cli: bad -load count %q\n", args[1])
				os.Exit(2)
			}
			load = n
			args = args[2:]
		case flag == "h" || flag == "help":
			usage(os.Stdout)
			return
		default:
			fmt.Fprintf(os.Stderr, "bwtree-cli: unknown flag %q\n", args[0])
			usage(os.Stderr)
			os.Exit(2)
		}
	}

	opts := bwtree.DefaultOptions()
	if len(args) > 0 && args[0] == "trace" {
		// The trace subcommand needs phase sampling compiled into the
		// tree it is about to exercise. The period is coprime to the
		// 4-op workload cycle so every op class gets sampled.
		opts.PhaseSampleEvery = 7
		opts.PhaseTraceBuffer = 1 << 14
		opts.FlightRecorderSize = 256
		if load == 0 {
			load = 50_000
		}
	}
	t := bwtree.New(opts)
	defer t.Close()
	s := t.NewSession()
	defer s.Release()

	if load > 0 {
		key := make([]byte, 8)
		for i := 0; i < load; i++ {
			binary.BigEndian.PutUint64(key, uint64(i))
			s.Insert(key, uint64(i))
		}
	}

	// One-shot mode: run the subcommand and exit.
	if len(args) > 0 {
		switch args[0] {
		case "stats":
			printStats(t)
		case "shape", "structure":
			printShape(t)
		case "snapshot":
			if len(args) != 2 {
				fmt.Fprintln(os.Stderr, "usage: bwtree-cli [-load n] snapshot <dir>")
				os.Exit(2)
			}
			count, err := bwtree.Snapshot(t, args[1])
			if err != nil {
				fmt.Fprintf(os.Stderr, "bwtree-cli: snapshot: %v\n", err)
				os.Exit(1)
			}
			printKVs("snapshot written", []kv{
				{"dir", args[1]},
				{"keys", count},
			})
		case "restore":
			if len(args) != 2 {
				fmt.Fprintln(os.Stderr, "usage: bwtree-cli [-json] restore <dir>")
				os.Exit(2)
			}
			if err := runRestore(args[1]); err != nil {
				fmt.Fprintf(os.Stderr, "bwtree-cli: restore: %v\n", err)
				os.Exit(1)
			}
		case "trace":
			if len(args) > 2 {
				fmt.Fprintln(os.Stderr, "usage: bwtree-cli [-load n] trace [file]")
				os.Exit(2)
			}
			out := ""
			if len(args) == 2 {
				out = args[1]
			}
			if err := runTrace(t, s, load, out); err != nil {
				fmt.Fprintf(os.Stderr, "bwtree-cli: trace: %v\n", err)
				os.Exit(1)
			}
		case "promcheck":
			if len(args) != 2 {
				fmt.Fprintln(os.Stderr, "usage: bwtree-cli promcheck <url|file|->")
				os.Exit(2)
			}
			if err := runPromCheck(args[1]); err != nil {
				fmt.Fprintf(os.Stderr, "bwtree-cli: promcheck: %v\n", err)
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "bwtree-cli: unknown subcommand %q (stats, shape, snapshot, restore, trace, promcheck)\n", args[0])
			os.Exit(2)
		}
		return
	}

	fmt.Println("OpenBw-Tree shell — 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("bw> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !dispatch(t, s, line) {
			return
		}
		fmt.Print("bw> ")
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: bwtree-cli [-json] [-load n] [stats|shape|snapshot <dir>|restore <dir>|trace [file]|promcheck <src>]

With a subcommand, runs it and exits (use -load to populate the tree
first). Without one, starts an interactive shell.

  stats           print the tree's operation counters
  shape           print node-shape statistics (Table 2 quantities)
  snapshot <dir>  checkpoint the tree into a fresh <dir> (snapshot + manifest)
  restore <dir>   recover the durable state in <dir>, validate it, and
                  print recovery statistics
  trace [file]    run a mixed workload with phase sampling on and write
                  the Chrome trace-event JSON to file (default stdout);
                  load it in chrome://tracing or ui.perfetto.dev
  promcheck <src> parse Prometheus text from a URL, file, or - (stdin)
                  and verify it is well-formed (exit 1 if not)
`)
}

// runTrace exercises the tree with a mixed single-op workload (the -load
// preload already ran sampled inserts), then renders every sampled phase
// trace as Chrome trace-event JSON.
func runTrace(t *bwtree.Tree, s *bwtree.Session, load int, outPath string) error {
	key := make([]byte, 8)
	var out []uint64
	for i := 0; i < load; i++ {
		binary.BigEndian.PutUint64(key, uint64(i))
		switch i % 4 {
		case 0:
			s.Update(key, uint64(i)*2)
		case 1:
			out = s.Lookup(key, out[:0])
		case 2:
			s.Delete(key, 0)
		default:
			s.Scan(key, 16, func([]byte, uint64) bool { return true })
		}
	}
	traces := t.PhaseTraces()
	w := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := bwtree.WriteChromeTrace(w, traces); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bwtree-cli: wrote %d sampled op traces\n", len(traces))
	if len(traces) == 0 {
		return fmt.Errorf("no traces sampled (is -load too small?)")
	}
	return nil
}

// runPromCheck validates Prometheus exposition text fetched from a URL,
// read from a file, or piped on stdin ("-").
func runPromCheck(src string) error {
	var r io.Reader
	switch {
	case src == "-":
		r = os.Stdin
	case strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://"):
		resp, err := http.Get(src)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %s", src, resp.Status)
		}
		r = resp.Body
	default:
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	n, err := obs.ParsePrometheus(r)
	if err != nil {
		return err
	}
	fmt.Printf("prometheus ok: %d samples\n", n)
	return nil
}

// runRestore recovers a durable directory, validates the tree, and
// reports what recovery did.
func runRestore(dir string) error {
	d, err := bwtree.OpenDurable(dir, bwtree.DurableOptions{})
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Tree().Validate(); err != nil {
		return fmt.Errorf("recovered tree failed validation: %w", err)
	}
	rec := d.RecoveryStats()
	printKVs("recovery", []kv{
		{"snapshot_keys", rec.SnapshotKeys},
		{"snapshot_lsn", rec.SnapshotLSN},
		{"replayed_records", rec.Replayed},
		{"last_lsn", rec.LastLSN},
		{"torn_tail", rec.TornTail},
		{"tail_fold_ms", float64(rec.Replay.Microseconds()) / 1000},
		{"merge_load_ms", float64(rec.SnapshotLoad.Microseconds()) / 1000},
		{"live_keys", d.Tree().Count()},
		{"validated", true},
	})
	return nil
}

// kv is one labelled statistic; a slice renders as an aligned table or,
// with -json, as an ordered JSON object.
type kv struct {
	key string
	val any
}

func printKVs(title string, kvs []kv) {
	if jsonOut {
		// Build the object by hand to keep the field order.
		var b strings.Builder
		b.WriteString("{")
		for i, e := range kvs {
			if i > 0 {
				b.WriteString(",")
			}
			name, _ := json.Marshal(e.key)
			val, _ := json.Marshal(e.val)
			b.Write(name)
			b.WriteString(":")
			b.Write(val)
		}
		b.WriteString("}")
		fmt.Println(b.String())
		return
	}
	width := 0
	for _, e := range kvs {
		if len(e.key) > width {
			width = len(e.key)
		}
	}
	fmt.Println(title)
	for _, e := range kvs {
		switch v := e.val.(type) {
		case float64:
			fmt.Printf("  %-*s  %.4f\n", width, e.key, v)
		default:
			fmt.Printf("  %-*s  %v\n", width, e.key, v)
		}
	}
}

func printStats(t *bwtree.Tree) {
	st := t.Stats()
	printKVs("operation counters", []kv{
		{"ops", st.Ops},
		{"aborts", st.Aborts},
		{"abort_rate", st.AbortRate()},
		{"consolidations", st.Consolidations},
		{"splits", st.Splits},
		{"merges", st.Merges},
		{"slab_full", st.SlabFull},
		{"pointer_chases", st.PointerChases},
		{"cas_failures", st.CASFailures},
		{"leaf_prealloc_util", st.LeafPreallocUtilization()},
		{"inner_prealloc_util", st.InnerPreallocUtilization()},
		{"gc_retired", st.GC.Retired},
		{"gc_reclaimed", st.GC.Reclaimed},
		{"gc_advances", st.GC.Advances},
	})
}

func printShape(t *bwtree.Tree) {
	st := t.StructureStats()
	printKVs("tree shape (Table 2 quantities)", []kv{
		{"height", st.Height},
		{"inner_nodes", st.InnerNodes},
		{"leaf_nodes", st.LeafNodes},
		{"avg_inner_chain_len", st.AvgInnerChainLen},
		{"avg_leaf_chain_len", st.AvgLeafChainLen},
		{"avg_inner_node_size", st.AvgInnerNodeSize},
		{"avg_leaf_node_size", st.AvgLeafNodeSize},
		{"inner_prealloc_util", st.InnerPreallocUse},
		{"leaf_prealloc_util", st.LeafPreallocUse},
		{"flat_bases", st.FlatBases},
		{"arena_bytes", st.ArenaBytes},
		{"inner_flat_bases", st.InnerFlatBases},
		{"inner_arena_bytes", st.InnerArenaBytes},
		{"key_bytes", st.KeyBytes},
		{"gc_ptrs_per_leaf", st.GCPtrsPerLeaf},
		{"gc_ptrs_per_inner", st.GCPtrsPerInner},
		{"leaf_bytes_per_entry", st.LeafBytesPerEntry},
	})
}

func dispatch(t *bwtree.Tree, s *bwtree.Session, line string) bool {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "quit", "exit":
		return false
	case "help":
		fmt.Print(`commands:
  put <key> <uint64>      insert a pair (fails on duplicate key)
  get <key>               look a key up
  update <key> <uint64>   replace a key's value
  del <key>               delete a key
  scan <start> <n>        visit n pairs in ascending order from start
  rscan <start> <n>       visit n pairs in descending order from start
  count                   number of live pairs
  stats                   operation counters (append 'json' for JSON)
  shape                   node-shape statistics (Table 2 quantities)
  dump                    render the tree (small trees only!)
  path <key>              diagnostic root-to-leaf descent dump for a key
  quit
`)
	case "put", "update", "insert":
		if len(args) != 2 {
			fmt.Println("usage:", cmd, "<key> <value>")
			break
		}
		v, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			fmt.Println("bad value:", err)
			break
		}
		var ok bool
		if cmd == "update" {
			ok = s.Update([]byte(args[0]), v)
		} else {
			ok = s.Insert([]byte(args[0]), v)
		}
		if ok {
			fmt.Println("OK")
		} else {
			fmt.Println("FAILED (duplicate or missing key)")
		}
	case "get":
		if len(args) != 1 {
			fmt.Println("usage: get <key>")
			break
		}
		vals := s.Lookup([]byte(args[0]), nil)
		if len(vals) == 0 {
			fmt.Println("(not found)")
		}
		for _, v := range vals {
			fmt.Println(v)
		}
	case "del", "delete":
		if len(args) != 1 {
			fmt.Println("usage: del <key>")
			break
		}
		if s.Delete([]byte(args[0]), 0) {
			fmt.Println("OK")
		} else {
			fmt.Println("(not found)")
		}
	case "scan", "rscan":
		if len(args) != 2 {
			fmt.Println("usage:", cmd, "<start> <n>")
			break
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			fmt.Println("bad count:", err)
			break
		}
		visit := func(k []byte, v uint64) bool {
			fmt.Printf("%s = %d\n", k, v)
			return true
		}
		if cmd == "scan" {
			s.Scan([]byte(args[0]), n, visit)
		} else {
			s.ScanReverse([]byte(args[0]), n, visit)
		}
	case "count":
		fmt.Println(t.Count())
	case "stats":
		withJSON(args, func() { printStats(t) })
	case "shape", "structure":
		withJSON(args, func() { printShape(t) })
	case "dump":
		fmt.Print(t.Dump())
	case "path":
		// Diagnostic descent: every hop from the root toward the leaf
		// covering the key, stopping AT any anomaly (nil mapping entry,
		// ∆abort/∆remove head, routing dead end) instead of retrying
		// past it — the tool for "why does this key hang".
		if len(args) != 1 {
			fmt.Println("usage: path <key>")
			break
		}
		fmt.Print(bwtree.FormatPath(t.DescendPath([]byte(args[0]))))
	default:
		fmt.Printf("unknown command %q ('help' lists commands)\n", cmd)
	}
	return true
}

// withJSON runs print with JSON output when the shell command had a
// trailing 'json' argument.
func withJSON(args []string, print func()) {
	saved := jsonOut
	if len(args) > 0 && args[0] == "json" {
		jsonOut = true
	}
	print()
	jsonOut = saved
}
