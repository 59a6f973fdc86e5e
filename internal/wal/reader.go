package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ReplayStats describes one recovery pass over the log.
type ReplayStats struct {
	// Segments is the number of segment files visited.
	Segments int
	// Records is the number of records delivered to the callback.
	Records int
	// FirstLSN/LastLSN bound the delivered records (0/0 when none).
	FirstLSN, LastLSN uint64
	// MaxLSN is the highest LSN present in the log, delivered or not
	// (records at or below the replay start still advance it). The next
	// writer must continue at MaxLSN+1.
	MaxLSN uint64
	// Torn reports that the final segment ended in a torn or corrupt
	// record, which was truncated away at TornOffset.
	Torn       bool
	TornOffset int64
}

// listSegments returns the log's segment file names in LSN order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs) // fixed-width LSN in the name: lexicographic == numeric
	return segs, nil
}

// DirSize returns the total byte size of the log segments in dir; 0 when
// the directory is missing or holds no segments. Callers use it to size
// replay-time structures before the record count is known.
func DirSize(dir string) int64 {
	segs, err := listSegments(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, name := range segs {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Replay scans the log in dir and calls fn for every record with
// LSN > afterLSN, in LSN order. A torn or corrupt tail in the final
// segment is truncated from the file (the write-ahead contract: such a
// record was never acknowledged, so discarding it is the correct
// recovery); the same damage in a non-final segment is a hard error,
// because rotation fsyncs a segment before opening its successor.
//
// fn's key slice aliases an internal buffer and is only valid during the
// call.
func Replay(dir string, afterLSN uint64, fn func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return st, err
	}
	// firstLSNs[i] is segment i's first LSN, parsed from the header.
	firstLSNs := make([]uint64, len(segs))
	datas := make([][]byte, len(segs))
	for i, name := range segs {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return st, err
		}
		if len(data) == 0 {
			// A crash can leave a created-but-never-synced segment empty;
			// tolerate it only as the final segment.
			if i != len(segs)-1 {
				return st, fmt.Errorf("wal: empty non-final segment %s", name)
			}
			datas[i] = nil
			firstLSNs[i] = 0
			continue
		}
		first, err := decodeSegmentHeader(data)
		if err != nil {
			if i == len(segs)-1 && !errors.Is(err, errSegmentVersion) {
				// Torn header write in the final segment: it holds no
				// durable records. (A foreign version is refused, not
				// truncated: its records are real, just not ours to read.)
				if terr := truncateFile(filepath.Join(dir, name), 0); terr != nil {
					return st, terr
				}
				st.Torn, st.TornOffset = true, 0
				datas[i] = nil
				continue
			}
			return st, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		firstLSNs[i] = first
		datas[i] = data
	}

	for i := range segs {
		data := datas[i]
		if data == nil {
			continue
		}
		st.Segments++
		lsn := firstLSNs[i]
		if lsn > 0 && lsn-1 > st.MaxLSN {
			st.MaxLSN = lsn - 1
		}
		// Skip decoding a segment that ends below the replay start: the
		// next segment's first LSN bounds this one's last.
		if i+1 < len(segs) && datas[i+1] != nil && firstLSNs[i+1] <= afterLSN+1 {
			if firstLSNs[i+1]-1 > st.MaxLSN {
				st.MaxLSN = firstLSNs[i+1] - 1
			}
			continue
		}
		off := headerSize
		for {
			op, key, value, n, status := decodeRecord(data[off:])
			if status == decodeEnd {
				break
			}
			if status == decodeTorn {
				if i != len(segs)-1 {
					return st, fmt.Errorf("wal: corrupt record at %s+%d (not the final segment)", segs[i], off)
				}
				if err := truncateFile(filepath.Join(dir, segs[i]), int64(off)); err != nil {
					return st, err
				}
				st.Torn, st.TornOffset = true, int64(off)
				break
			}
			if lsn > st.MaxLSN {
				st.MaxLSN = lsn
			}
			if lsn > afterLSN {
				if st.Records == 0 {
					st.FirstLSN = lsn
				}
				st.LastLSN = lsn
				st.Records++
				if fn != nil {
					if err := fn(Record{LSN: lsn, Op: op, Key: key, Value: value}); err != nil {
						return st, err
					}
				}
			}
			lsn++
			off += n
		}
	}
	return st, nil
}

// truncateFile truncates path to size and fsyncs it, making the
// discarded torn tail unrecoverable (so a later crash cannot resurrect
// half a record).
func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// Prune removes log segments made obsolete by a checkpoint at cpLSN:
// a segment is removable when its successor's first LSN is <= cpLSN+1,
// meaning every record the segment holds is already covered by the
// snapshot. The active (last) segment is always kept.
func Prune(dir string, cpLSN uint64) (removed int, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	firsts := make([]uint64, len(segs))
	for i, name := range segs {
		data, err := readHeader(filepath.Join(dir, name))
		if err != nil {
			return removed, nil // unreadable tail segment: keep everything from here
		}
		first, err := decodeSegmentHeader(data)
		if err != nil {
			return removed, nil
		}
		firsts[i] = first
	}
	for i := 0; i+1 < len(segs); i++ {
		if firsts[i+1] <= cpLSN+1 {
			if err := os.Remove(filepath.Join(dir, segs[i])); err != nil {
				return removed, err
			}
			removed++
		} else {
			break
		}
	}
	if removed > 0 {
		err = syncDir(dir)
	}
	return removed, err
}

// readHeader reads just a segment's header bytes.
func readHeader(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, headerSize)
	n, err := f.Read(buf)
	if n < headerSize {
		return buf[:n], errShortHeader
	}
	return buf, err
}
