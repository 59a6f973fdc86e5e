package obs

import (
	"testing"
	"time"
)

func TestRatesSincePreviousRead(t *testing.T) {
	var r rates
	base := time.Now()
	if got := r.read(map[string]uint64{"ops": 0}, base); len(got) != 0 {
		t.Fatalf("first read = %v, want no rates", got)
	}
	// 1000 ops over 2 seconds.
	got := r.read(map[string]uint64{"ops": 1000}, base.Add(2*time.Second))["ops_per_sec"]
	if got < 499 || got > 501 {
		t.Fatalf("ops_per_sec = %v, want ~500", got)
	}
	// No growth since the previous read → zero rate.
	if got := r.read(map[string]uint64{"ops": 1000}, base.Add(3*time.Second))["ops_per_sec"]; got != 0 {
		t.Fatalf("idle ops_per_sec = %v, want 0", got)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Vars{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
