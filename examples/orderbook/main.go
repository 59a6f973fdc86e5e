// orderbook: a price-ordered limit order book on the OpenBw-Tree,
// exercising the iterator machinery the paper adds in §3.2/Appendix C —
// forward iteration (best ask), backward iteration (best bid), and
// ordered scans under concurrent updates from matching goroutines.
package main

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/bwtree"
)

// priceKey encodes a price so byte order equals numeric order.
func priceKey(cents uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, cents)
	return b
}

func price(k []byte) uint64 { return binary.BigEndian.Uint64(k) }

func main() {
	t := bwtree.New(bwtree.DefaultOptions())
	defer t.Close()

	// Seed the book: asks above 10000 cents, bids below. The value is
	// the resting quantity at that price level.
	s := t.NewSession()
	for i := uint64(1); i <= 50; i++ {
		s.Insert(priceKey(10000+i*5), i*10) // asks
		s.Insert(priceKey(10000-i*5), i*10) // bids
	}

	mid := priceKey(10000)

	// Best ask: the first level at or above mid (forward iterator).
	it := s.NewIterator()
	it.Seek(mid)
	fmt.Printf("best ask: %d x %d\n", price(it.Key()), it.Value())

	// Best bid: the first level strictly below mid (backward iterator).
	it.Seek(mid)
	it.Prev()
	fmt.Printf("best bid: %d x %d\n", price(it.Key()), it.Value())

	// Top-of-book depth, five levels each way.
	fmt.Println("asks:")
	s.Scan(mid, 5, func(k []byte, v uint64) bool {
		fmt.Printf("  %d x %d\n", price(k), v)
		return true
	})
	fmt.Println("bids:")
	s.ScanReverse(priceKey(9999), 5, func(k []byte, v uint64) bool {
		fmt.Printf("  %d x %d\n", price(k), v)
		return true
	})
	s.Release()

	// Concurrent matching: one goroutine lifts asks (deletes levels from
	// the bottom of the ask stack), one adds bids, while a reader keeps
	// computing the spread from consistent iterator snapshots.
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // taker: consume the 20 cheapest asks
		defer wg.Done()
		s := t.NewSession()
		defer s.Release()
		for i := uint64(1); i <= 20; i++ {
			s.Delete(priceKey(10000+i*5), 0)
		}
	}()
	go func() { // maker: raise bids toward mid
		defer wg.Done()
		s := t.NewSession()
		defer s.Release()
		for i := uint64(0); i < 20; i++ {
			s.Insert(priceKey(9980+i), 7)
		}
	}()
	go func() { // reader: spread snapshots under concurrency
		defer wg.Done()
		s := t.NewSession()
		defer s.Release()
		for r := 0; r < 5; r++ {
			it := s.NewIterator()
			it.Seek(mid)
			if !it.Valid() {
				continue
			}
			ask := price(it.Key())
			it.Prev()
			if !it.Valid() {
				continue
			}
			bid := price(it.Key())
			fmt.Printf("spread snapshot: bid %d / ask %d (%d)\n", bid, ask, ask-bid)
		}
	}()
	wg.Wait()

	s = t.NewSession()
	defer s.Release()
	it = s.NewIterator()
	it.Seek(mid)
	fmt.Printf("final best ask: %d x %d\n", price(it.Key()), it.Value())
	it.Prev()
	fmt.Printf("final best bid: %d x %d\n", price(it.Key()), it.Value())
}
