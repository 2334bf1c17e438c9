package pubsub

import (
	"encoding/binary"
	"slices"
	"sort"
	"time"
)

// slabSize is the size of one partition-log slab: a slab allocation is
// amortized over thousands of share records, and a barely used
// partition (control, lineage) holds little slack. A record too large
// for an empty slab gets one of its own, sized exactly.
const slabSize = 256 << 10

// recordHeaderLen is the fixed head of a record frame: u64 unix-nanos |
// u32 key length. Key and value follow; the value's length is the frame
// remainder.
const recordHeaderLen = 12

// slab is one fixed-size, pointer-free block of a partition log. Record
// frames — the untagged partition-WAL framing, so a journaled, a
// replayed and a stored record are the same bytes — fill it from the
// front, and each frame's end position is written as a u32 from the
// back. Neither is ever re-grown or copied: the log pays no append
// slack, and the collector has nothing to mark inside it.
type slab struct {
	base int64 // log offset of the slab's first record
	n    int   // records held
	used int   // frame bytes written from the front
	buf  []byte
}

// end returns the end position of the slab's i-th frame.
func (s *slab) end(i int) int {
	return int(binary.BigEndian.Uint32(s.buf[len(s.buf)-4*(i+1):]))
}

// put appends one record: its frame (appendPartitionRecord's — the one
// copy a publish or a replay makes of key and value) at the front of the
// tail slab and its end position at the back, opening a new slab when
// the tail has no room — the buffer trim set aside if there is one, else
// the only allocation a publish makes. Caller holds p.mu.
func (p *partitionLog) put(ts time.Time, key, value []byte) {
	size := recordHeaderLen + len(key) + len(value)
	n := len(p.slabs)
	if n == 0 || p.slabs[n-1].used+size+4*(p.slabs[n-1].n+1) > len(p.slabs[n-1].buf) {
		buf := p.spare
		p.spare = nil
		if len(buf) < size+4 {
			buf = make([]byte, max(slabSize, size+4))
		}
		p.slabs = append(p.slabs, slab{base: p.count, buf: buf})
		n++
	}
	s := &p.slabs[n-1]
	appendPartitionRecord(s.buf[s.used:s.used:s.used+size], ts, key, value)
	s.used += size
	s.n++
	binary.BigEndian.PutUint32(s.buf[len(s.buf)-4*s.n:], uint32(s.used))
	p.count++
}

// first returns the earliest retained offset: the oldest slab's base, or
// the log end when trim has released every slab. Caller holds p.mu.
func (p *partitionLog) first() int64 {
	if len(p.slabs) == 0 {
		return p.count
	}
	return p.slabs[0].base
}

// trim releases every slab whose records all lie below floor — the tail
// too, once consumed whole — and sets one standard-size buffer aside as
// the next tail. A slab floor lands inside stays whole; offsets and
// count are untouched. Stale bytes in a reused buffer are never read: a
// slab reads back only what it has written. Caller holds p.mu.
func (p *partitionLog) trim(floor int64) {
	i := 0
	for ; i < len(p.slabs) && p.slabs[i].base+int64(p.slabs[i].n) <= floor; i++ {
		if len(p.slabs[i].buf) == slabSize {
			p.spare = p.slabs[i].buf
		}
	}
	p.slabs = slices.Delete(p.slabs, 0, i)
}

// each visits the frames of records [from, to) in offset order. The
// frames alias the log: fn must not retain or mutate them. Caller holds
// p.mu and has checked p.first() <= from <= to <= p.count.
func (p *partitionLog) each(from, to int64, fn func(offset int64, frame []byte)) {
	if from >= to {
		return
	}
	si := sort.Search(len(p.slabs), func(i int) bool { return p.slabs[i].base > from }) - 1
	for off := from; off < to; si++ {
		s := &p.slabs[si]
		i := int(off - s.base)
		start := 0
		if i > 0 {
			start = s.end(i - 1)
		}
		for ; i < s.n && off < to; i, off = i+1, off+1 {
			end := s.end(i)
			fn(off, s.buf[start:end:end])
			start = end
		}
	}
}

// splitFrame is appendPartitionRecord's inverse over a well-formed
// frame (one the log holds): the timestamp and views of the key — nil
// when the record has none — and the value.
func splitFrame(frame []byte) (ts time.Time, key, value []byte) {
	ts = time.Unix(0, int64(binary.BigEndian.Uint64(frame)))
	klen := int(binary.BigEndian.Uint32(frame[8:recordHeaderLen]))
	if klen > 0 {
		key = frame[recordHeaderLen : recordHeaderLen+klen]
	}
	return ts, key, frame[recordHeaderLen+klen:]
}
