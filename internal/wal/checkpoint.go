package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Manifest is the checkpoint descriptor, stored as JSON in the MANIFEST
// file. It is the recovery root: recovery loads Snapshot, then replays
// every log record with LSN > LSN.
type Manifest struct {
	// Snapshot is the snapshot file name (relative to the log directory).
	Snapshot string `json:"snapshot"`
	// LSN is the replay start: every operation the snapshot might be
	// missing has a log record with a higher LSN. Because the snapshot is
	// taken concurrently with writers (epoch-consistent, not
	// point-in-time), it may also contain the effects of records after
	// LSN; every record is an effect that replay applies last-writer-wins,
	// so re-applying them is harmless (see DESIGN.md).
	LSN uint64 `json:"lsn"`
	// Count is the number of pairs in the snapshot.
	Count uint64 `json:"count"`
	// CRC is the CRC32C of the snapshot's record bytes.
	CRC uint32 `json:"crc"`
}

const manifestName = "MANIFEST"

// snapshotName returns the snapshot file name for a checkpoint at lsn.
func snapshotName(lsn uint64) string {
	return fmt.Sprintf("snap-%020d.snap", lsn)
}

// WriteCheckpoint streams the pairs produced by next — which must arrive
// in ascending key order with non-empty keys — into a snapshot file in
// dir and atomically publishes a manifest pointing at it. lsn is the
// replay start recorded in the manifest (the log LSN captured before the
// tree walk began).
//
// preCommit, when non-nil, runs after the snapshot file is fsynced and
// before the manifest is published; a caller uses it to force the log
// durable through the walk's end, so every operation possibly reflected
// in the snapshot is also on disk in the log. If preCommit fails the
// checkpoint is abandoned and the previous manifest stays authoritative.
//
// Older snapshots and fully-covered log segments are removed after the
// manifest is durable.
func WriteCheckpoint(dir string, lsn uint64, next func() (key []byte, value uint64, ok bool), preCommit func() error) (Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, err
	}
	m := Manifest{Snapshot: snapshotName(lsn), LSN: lsn}
	tmp := filepath.Join(dir, m.Snapshot+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return Manifest{}, err
	}
	defer os.Remove(tmp) // no-op after the rename

	bw := bufio.NewWriterSize(f, 1<<20)
	var hdr [8]byte
	copy(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close()
		return Manifest{}, err
	}
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(bw, crc)
	var rec [binary.MaxVarintLen64 + 8]byte
	for {
		k, v, ok := next()
		if !ok {
			break
		}
		if len(k) == 0 {
			f.Close()
			return Manifest{}, errors.New("wal: snapshot key must be non-empty")
		}
		n := binary.PutUvarint(rec[:], uint64(len(k)))
		binary.LittleEndian.PutUint64(rec[n:], v)
		if _, err := out.Write(rec[:n+8]); err != nil {
			f.Close()
			return Manifest{}, err
		}
		if _, err := out.Write(k); err != nil {
			f.Close()
			return Manifest{}, err
		}
		m.Count++
	}
	m.CRC = crc.Sum32()
	// Footer: count + CRC, so a truncated snapshot never verifies.
	var foot [12]byte
	binary.LittleEndian.PutUint64(foot[0:8], m.Count)
	binary.LittleEndian.PutUint32(foot[8:12], m.CRC)
	if _, err := bw.Write(foot[:]); err != nil {
		f.Close()
		return Manifest{}, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return Manifest{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return Manifest{}, err
	}
	if err := f.Close(); err != nil {
		return Manifest{}, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, m.Snapshot)); err != nil {
		return Manifest{}, err
	}
	if err := syncDir(dir); err != nil {
		return Manifest{}, err
	}

	if preCommit != nil {
		if err := preCommit(); err != nil {
			os.Remove(filepath.Join(dir, m.Snapshot))
			return Manifest{}, err
		}
	}

	if err := writeManifest(dir, m); err != nil {
		return Manifest{}, err
	}
	removeStaleSnapshots(dir, m.Snapshot)
	Prune(dir, m.LSN)
	return m, nil
}

// writeManifest atomically replaces the MANIFEST file.
func writeManifest(dir string, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// removeStaleSnapshots deletes every snapshot file except keep.
func removeStaleSnapshots(dir, keep string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if name == keep {
			continue
		}
		if strings.HasPrefix(name, "snap-") && (strings.HasSuffix(name, ".snap") || strings.HasSuffix(name, ".tmp")) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// LoadManifest reads the checkpoint manifest. ok is false when the
// directory has no manifest (an empty or log-only state).
func LoadManifest(dir string) (m Manifest, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return Manifest{}, false, nil
		}
		return Manifest{}, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("wal: corrupt manifest: %w", err)
	}
	return m, true, nil
}

// Snapshot is a verified checkpoint snapshot, held in memory.
type Snapshot struct {
	body  []byte
	count uint64
}

// ReadSnapshot reads and verifies the manifest's snapshot — header,
// version, body CRC and the footer's agreement with the manifest, all
// before the first pair is handed out.
func ReadSnapshot(dir string, m Manifest) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, m.Snapshot))
	if err != nil {
		return nil, err
	}
	if len(data) < 8+12 || string(data[0:4]) != snapMagic {
		return nil, errors.New("wal: bad snapshot header")
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return nil, fmt.Errorf("wal: unsupported snapshot version %d", v)
	}
	body := data[8 : len(data)-12]
	count := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, errors.New("wal: snapshot CRC mismatch")
	}
	if count != m.Count || crc != m.CRC {
		return nil, errors.New("wal: snapshot does not match manifest")
	}
	return &Snapshot{body: body, count: count}, nil
}

// Cursor returns a fresh cursor over the snapshot's pairs in stored
// order; cursors are independent, so several may run at once. next
// reports io.EOF after the last pair, once the record count has been
// checked against the footer; any other error condemns the whole
// snapshot. Keys alias the snapshot's image.
func (s *Snapshot) Cursor() (next func() (key []byte, value uint64, err error)) {
	body := s.body
	var seen uint64
	return func() ([]byte, uint64, error) {
		if len(body) == 0 {
			if seen != s.count {
				return nil, 0, fmt.Errorf("wal: snapshot record count %d != footer %d", seen, s.count)
			}
			return nil, 0, io.EOF
		}
		klen, n := binary.Uvarint(body)
		if n <= 0 || klen == 0 || uint64(len(body)) < uint64(n)+8+klen {
			return nil, 0, errors.New("wal: truncated snapshot record")
		}
		v := binary.LittleEndian.Uint64(body[n : n+8])
		k := body[uint64(n)+8 : uint64(n)+8+klen]
		body = body[uint64(n)+8+klen:]
		seen++
		return k, v, nil
	}
}
