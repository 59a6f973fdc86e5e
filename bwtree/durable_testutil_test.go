package bwtree

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// lastSegment returns the path of the newest log segment in dir.
func lastSegment(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		return "", errors.New("no log segments")
	}
	sort.Strings(segs)
	return filepath.Join(dir, segs[len(segs)-1]), nil
}

// appendGarbageToLastSegment simulates a torn write by appending junk
// bytes to the newest log segment in dir.
func appendGarbageToLastSegment(dir string, junk []byte) error {
	p, err := lastSegment(dir)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(junk)
	return err
}

// truncateLastSegment shears n bytes off the newest log segment,
// simulating a torn write ending inside the final record's frame.
func truncateLastSegment(dir string, n int64) error {
	p, err := lastSegment(dir)
	if err != nil {
		return err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return err
	}
	return os.Truncate(p, fi.Size()-n)
}
