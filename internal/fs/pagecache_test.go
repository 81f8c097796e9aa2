package fs

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refLRU is the list-based LRU the slab page cache must match exactly:
// get moves a hit to the front; put refreshes and moves an existing entry,
// or pushes a new one and then evicts from the back while over capacity.
type refLRU struct {
	max     int
	items   map[uint64]*list.Element
	order   *list.List
	evicted []uint64
}

type refEntry struct {
	no   uint64
	data []byte
}

func newRefLRU(max int) *refLRU {
	return &refLRU{max: max, items: make(map[uint64]*list.Element), order: list.New()}
}

func (r *refLRU) get(no uint64, out []byte) bool {
	el, ok := r.items[no]
	if !ok {
		return false
	}
	r.order.MoveToFront(el)
	copy(out, el.Value.(*refEntry).data)
	return true
}

func (r *refLRU) put(no uint64, data []byte) {
	if el, ok := r.items[no]; ok {
		copy(el.Value.(*refEntry).data, data)
		r.order.MoveToFront(el)
		return
	}
	d := make([]byte, BlockSize)
	copy(d, data)
	r.items[no] = r.order.PushFront(&refEntry{no: no, data: d})
	for len(r.items) > r.max {
		back := r.order.Back()
		e := back.Value.(*refEntry)
		r.order.Remove(back)
		delete(r.items, e.no)
		r.evicted = append(r.evicted, e.no)
	}
}

// TestPageCacheMatchesListLRU drives the slab page cache and the
// reference LRU with one random get/put stream and requires identical
// hits, contents, residency and eviction victims after every step.
func TestPageCacheMatchesListLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1024} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			pc, ref := newPageCache(capacity), newRefLRU(capacity)
			// A key space a few times the capacity gives a mix of hits,
			// refreshes and evictions.
			keys := uint64(3*capacity + 3)
			data := make([]byte, BlockSize)
			got, want := make([]byte, BlockSize), make([]byte, BlockSize)
			for step := 0; step < 20000; step++ {
				no := uint64(rng.Int63n(int64(keys)))
				if rng.Intn(2) == 0 {
					binary.LittleEndian.PutUint64(data, uint64(step))
					data[BlockSize-1] = byte(no)
					pc.put(no, data)
					ref.put(no, data)
				} else {
					hit, wantHit := pc.get(no, got), ref.get(no, want)
					if hit != wantHit {
						t.Fatalf("step %d: get(%d) hit=%v, reference %v", step, no, hit, wantHit)
					}
					if hit && !bytes.Equal(got, want) {
						t.Fatalf("step %d: get(%d) returned different contents", step, no)
					}
				}
				if pc.len() != len(ref.items) {
					t.Fatalf("step %d: %d resident, reference %d", step, pc.len(), len(ref.items))
				}
				for _, v := range ref.evicted {
					if _, ok := pc.slots[v]; ok {
						t.Fatalf("step %d: block %d should have been evicted", step, v)
					}
				}
				ref.evicted = ref.evicted[:0]
			}
			// Same recency order, MRU first.
			s := pc.next[0]
			for el := ref.order.Front(); el != nil; el = el.Next() {
				if s == 0 || pc.blocks[s] != el.Value.(*refEntry).no {
					t.Fatalf("recency order diverges at block %d", el.Value.(*refEntry).no)
				}
				s = pc.next[s]
			}
			if s != 0 {
				t.Fatal("slab ring holds more blocks than the reference")
			}
		})
	}
}

func TestPageCacheZeroCapacityStoresNothing(t *testing.T) {
	pc := newPageCache(0)
	pc.put(1, make([]byte, BlockSize))
	if pc.get(1, make([]byte, BlockSize)) || pc.len() != 0 {
		t.Fatal("zero-capacity page cache kept a block")
	}
}
