package pmemdimm

import (
	"slices"
	"testing"
)

// refLRU is the reference model an LRU tier must match: a recency list
// and a dirty set, with none of the tier's arena, index or epoch tricks.
type refLRU struct {
	cap   int
	order []uint64 // most recent first
	dirty map[uint64]bool
}

func (r *refLRU) touch(key uint64) bool {
	i := slices.Index(r.order, key)
	if i < 0 {
		return false
	}
	r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, key)
	return true
}

func (r *refLRU) insert(key uint64, dirty bool) (evictedDirty, evicted bool) {
	if !r.touch(key) {
		if len(r.order) >= r.cap {
			victim := r.order[len(r.order)-1]
			r.order = r.order[:len(r.order)-1]
			evicted, evictedDirty = true, r.dirty[victim]
			delete(r.dirty, victim)
		}
		r.order = slices.Insert(r.order, 0, key)
	}
	if dirty {
		r.dirty[key] = true
	}
	return evictedDirty, evicted
}

func (r *refLRU) clone() *refLRU {
	d := make(map[uint64]bool, len(r.dirty))
	for k, v := range r.dirty {
		d[k] = v
	}
	return &refLRU{cap: r.cap, order: slices.Clone(r.order), dirty: d}
}

// lruPair is a tier and its reference model, driven in lockstep.
type lruPair struct {
	l   *lru
	ref *refLRU
}

// FuzzLRU drives an LRU tier and a copy cloned from it at random points
// through random touch, insert, insertNew, markDirty and flushAll
// operations, each in lockstep with its reference model. Every result
// (hit, evicted, evictedDirty, the flushed count), the length and the
// dirty count must agree after every operation, and the recency order and
// per-node dirtiness must agree at the end. The fuzzer hunts for probe
// runs that wrap the index, backward-shift deletes across a wrap, and
// growth while dirty nodes are live.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 1, 2, 1, 3, 1, 4, 5, 0, 1, 1, 6, 1, 2, 2, 7})
	f.Add([]byte{19, 1, 9, 1, 17, 1, 25, 1, 33, 5, 0, 2, 9, 4, 0, 1, 41, 1, 49, 3, 17})
	seq := []byte{40}
	for i := byte(0); i < 96; i++ {
		seq = append(seq, i%6, i*37)
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%48)
		pairs := [2]lruPair{{newLRU(capacity), &refLRU{cap: capacity, dirty: map[uint64]bool{}}}}
		pairs[1] = lruPair{pairs[0].l.clone(), pairs[0].ref.clone()}
		data = data[1:]
		for step := 0; len(data) >= 2; step++ {
			op, arg := data[0], data[1]
			data = data[2:]
			p := &pairs[op>>7]
			// Keys are sparse block numbers: a few share low bits, so
			// probe runs collide and wrap in a small index.
			key := uint64(arg%64) << ((arg >> 6) * 10)
			dirty := arg&1 != 0
			switch (op & 0x7f) % 6 {
			case 0:
				_, got := p.l.touch(key)
				if want := p.ref.touch(key); got != want {
					t.Fatalf("step %d: touch(%#x) hit %v, want %v", step, key, got, want)
				}
			case 1:
				gd, ge := p.l.insert(key, dirty)
				if wd, we := p.ref.insert(key, dirty); gd != wd || ge != we {
					t.Fatalf("step %d: insert(%#x) evicted %v/%v, want %v/%v", step, key, ge, gd, we, wd)
				}
			case 2:
				if slices.Contains(p.ref.order, key) {
					continue // insertNew's contract: the caller just missed
				}
				gd, ge := p.l.insertNew(key, dirty)
				if wd, we := p.ref.insert(key, dirty); gd != wd || ge != we {
					t.Fatalf("step %d: insertNew(%#x) evicted %v/%v, want %v/%v", step, key, ge, gd, we, wd)
				}
			case 3:
				i, ok := p.l.touch(key)
				if want := p.ref.touch(key); ok != want {
					t.Fatalf("step %d: touch(%#x) before markDirty hit %v, want %v", step, key, ok, want)
				}
				if ok {
					p.l.markDirty(i)
					p.ref.dirty[key] = true
				}
			case 4:
				got, want := p.l.flushAll(), len(p.ref.dirty)
				clear(p.ref.dirty)
				if got != want {
					t.Fatalf("step %d: flushAll = %d, want %d", step, got, want)
				}
			case 5:
				pairs[1-(op>>7)] = lruPair{p.l.clone(), p.ref.clone()}
			}
			for j, q := range pairs {
				if q.l.len() != len(q.ref.order) || q.l.dirty != len(q.ref.dirty) {
					t.Fatalf("step %d, copy %d: len %d dirty %d, want %d and %d",
						step, j, q.l.len(), q.l.dirty, len(q.ref.order), len(q.ref.dirty))
				}
			}
		}
		for j, q := range pairs {
			var order []uint64
			for i := q.l.head; i >= 0; i = q.l.nodes[i].next {
				order = append(order, q.l.nodes[i].key)
				if q.l.isDirty(i) != q.ref.dirty[q.l.nodes[i].key] {
					t.Fatalf("copy %d: key %#x dirty %v, want %v", j, q.l.nodes[i].key, q.l.isDirty(i), !q.l.isDirty(i))
				}
				if _, node := q.l.find(q.l.nodes[i].key); node != i {
					t.Fatalf("copy %d: index maps key %#x to node %d, want %d", j, q.l.nodes[i].key, node, i)
				}
			}
			if !slices.Equal(order, q.ref.order) {
				t.Fatalf("copy %d: recency order %#x, want %#x", j, order, q.ref.order)
			}
		}
	})
}
