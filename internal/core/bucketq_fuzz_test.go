package core

import (
	"testing"

	"dbo/internal/market"
	"dbo/internal/sim"
)

// FuzzBucketQueue differentially fuzzes the bucketed trade queue
// against the reference heap on arbitrary push/pop interleavings. The
// fuzzer drives the bucket keying through every structural path: tail
// appends, same-point reinsertion, out-of-order point splices (the
// straggler case), bucket recycling through the free list, and the
// dead-prefix compaction — while the heap provides the reference
// (DC, MP, Seq) total order.
//
// Each input byte is one operation: the low bits select push vs pop,
// and pushes derive (Point, Elapsed, MP) from the byte so that small
// domains force collisions on every key component.
func FuzzBucketQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x80, 0x81})
	// Monotone points with interleaved pops (steady state).
	f.Add([]byte{0x10, 0x20, 0x30, 0x80, 0x40, 0x80, 0x80})
	// Out-of-order points after pops (straggler splice at the head).
	f.Add([]byte{0x30, 0x20, 0x80, 0x04, 0x80, 0x80})
	// Long same-point run to exercise within-bucket sorted insert.
	f.Add([]byte{0x11, 0x19, 0x15, 0x13, 0x17, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, ops []byte) {
		bq, hq := &bucketQueue{}, &heapQueue{}
		var seq market.TradeSeq
		for i, op := range ops {
			if op&0x80 != 0 {
				if bq.Len() != hq.Len() {
					t.Fatalf("op %d: len diverges: bucketed %d heap %d", i, bq.Len(), hq.Len())
				}
				if bq.Len() == 0 {
					if p := bq.Peek(); p != nil {
						t.Fatalf("op %d: empty bucketed queue peeked %v", i, p)
					}
					continue
				}
				bp, hp := bq.Peek(), hq.Peek()
				if ordKey(bp) != ordKey(hp) {
					t.Fatalf("op %d: peek diverges: bucketed %+v heap %+v", i, ordKey(bp), ordKey(hp))
				}
				b, h := bq.Pop(), hq.Pop()
				if ordKey(b) != ordKey(h) {
					t.Fatalf("op %d: pop diverges: bucketed %+v heap %+v", i, ordKey(b), ordKey(h))
				}
				continue
			}
			seq++
			// Tiny domains on every key component so the fuzzer hits
			// point collisions, elapsed ties, and MP tie-breaks.
			tr := &market.Trade{
				MP:  market.ParticipantID(1 + op&0x03),
				Seq: seq,
				DC: market.DeliveryClock{
					Point:   market.PointID(1 + (op>>4)&0x07),
					Elapsed: sim.Time((op >> 2) & 0x03),
				},
			}
			cp := *tr
			bq.Push(tr)
			hq.Push(&cp)
		}
		bs, hs := bq.Drain(), hq.Drain()
		if len(bs) != len(hs) {
			t.Fatalf("drain: len diverges: bucketed %d heap %d", len(bs), len(hs))
		}
		for i := range bs {
			if ordKey(bs[i]) != ordKey(hs[i]) {
				t.Fatalf("drain diverges at %d: bucketed %+v heap %+v", i, ordKey(bs[i]), ordKey(hs[i]))
			}
		}
	})
}
