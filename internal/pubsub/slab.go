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

// runHeaderLen is the head of a run: u64 unix-nanos | u32 keyLen | u32
// valLen. The run's records follow, each its key then its value, at the
// fixed stride keyLen+valLen — in a slab and, behind a kind byte, in the
// partition journal (durable.go).
const runHeaderLen = 16

// appendRunHeader appends a run header to buf; given a slice of a slab's
// free space, it writes the header in place.
func appendRunHeader(buf []byte, nanos int64, keyLen, valLen int) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(nanos))
	buf = binary.BigEndian.AppendUint32(buf, uint32(keyLen))
	return binary.BigEndian.AppendUint32(buf, uint32(valLen))
}

// readRunHeader parses the run header at the front of h.
func readRunHeader(h []byte) (nanos int64, keyLen, valLen int) {
	return int64(binary.BigEndian.Uint64(h)), int(binary.BigEndian.Uint32(h[8:])), int(binary.BigEndian.Uint32(h[12:]))
}

// runEntryLen is one run's entry in its slab's directory: u32 start
// position | u32 slab index of the run's first record.
const runEntryLen = 8

// slab is one fixed-size, pointer-free block of a partition log. Runs —
// consecutive records of one timestamp, key length and value length, as
// a columnar publish delivers them — fill it from the front, each one
// header and then its records' bytes, and each run's directory entry is
// written from the back. Neither is ever re-grown or copied: the log
// pays no append slack, and the collector has nothing to mark inside it.
type slab struct {
	base int64 // log offset of the slab's first record
	n    int   // records held
	runs int   // runs held
	used int   // run bytes written from the front
	buf  []byte
}

// entry returns run i's start position and the slab index of its first
// record.
func (s *slab) entry(i int) (start, first int) {
	e := s.buf[len(s.buf)-runEntryLen*(i+1):]
	return int(binary.BigEndian.Uint32(e)), int(binary.BigEndian.Uint32(e[4:]))
}

// free returns the bytes between the front and the directory.
func (s *slab) free() int { return len(s.buf) - s.used - runEntryLen*s.runs }

// extends reports whether a record of this timestamp and these lengths
// belongs to the slab's last run.
func (s *slab) extends(nanos int64, keyLen, valLen int) bool {
	if s.runs == 0 {
		return false
	}
	start, _ := s.entry(s.runs - 1)
	n, k, v := readRunHeader(s.buf[start:])
	return n == nanos && k == keyLen && v == valLen
}

// open starts a run at the front and enters it in the directory. Caller
// has checked free() for its header, entry and first record.
func (s *slab) open(nanos int64, keyLen, valLen int) {
	appendRunHeader(s.buf[s.used:s.used], nanos, keyLen, valLen)
	s.runs++
	e := s.buf[len(s.buf)-runEntryLen*s.runs:]
	binary.BigEndian.PutUint32(e, uint32(s.used))
	binary.BigEndian.PutUint32(e[4:], uint32(s.n))
	s.used += runHeaderLen
}

// put appends one record: its key and value — the one copy a publish or
// a replay makes of them — join the tail slab's last run when the
// timestamp, key length and value length match it and the slab has
// room, and otherwise open a new run, in a new slab when the tail has no
// room for one — the buffer trim set aside if there is one, else the
// only allocation a publish makes. Caller holds p.mu.
func (p *partitionLog) put(ts time.Time, key, value []byte) {
	nanos, stride := ts.UnixNano(), len(key)+len(value)
	var s *slab
	if n := len(p.slabs); n > 0 {
		s = &p.slabs[n-1]
	}
	if s == nil || !s.extends(nanos, len(key), len(value)) || s.free() < stride {
		if need := runHeaderLen + runEntryLen + stride; s == nil || s.free() < need {
			buf := p.spare
			p.spare = nil
			if len(buf) < need {
				buf = make([]byte, max(slabSize, need))
			}
			p.slabs = append(p.slabs, slab{base: p.count, buf: buf})
			s = &p.slabs[len(p.slabs)-1]
		}
		s.open(nanos, len(key), len(value))
	}
	s.used += copy(s.buf[s.used:], key)
	s.used += copy(s.buf[s.used:], value)
	s.n++
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

// each visits records [from, to) in offset order as runs: one call per
// run, or the part of one the span covers, in each slab. A body aliases
// the log: fn must not retain or mutate it. Caller holds p.mu and has
// checked p.first() <= from <= to <= p.count.
func (p *partitionLog) each(from, to int64, fn func(r Run)) {
	if from >= to {
		return
	}
	si := sort.Search(len(p.slabs), func(i int) bool { return p.slabs[i].base > from }) - 1
	for off := from; off < to; si++ {
		s := &p.slabs[si]
		ri := sort.Search(s.runs, func(r int) bool { _, first := s.entry(r); return first > int(off-s.base) }) - 1
		for ; ri < s.runs && off < to; ri++ {
			start, first := s.entry(ri)
			end := s.n
			if ri+1 < s.runs {
				_, end = s.entry(ri + 1)
			}
			r := Run{Offset: s.base + int64(first), Count: end - first}
			r.Nanos, r.KeyLen, r.ValLen = readRunHeader(s.buf[start:])
			r.Body = s.buf[start+runHeaderLen:]
			r = r.span(off, to)
			fn(r)
			off += int64(r.Count)
		}
	}
}

// span returns the part of r inside [from, to), which must overlap it,
// with its body cut to the records' bytes and cap-limited.
func (r Run) span(from, to int64) Run {
	stride := r.KeyLen + r.ValLen
	if skip := from - r.Offset; skip > 0 {
		r.Offset, r.Count, r.Body = from, r.Count-int(skip), r.Body[int(skip)*stride:]
	}
	if over := r.Offset + int64(r.Count) - to; over > 0 {
		r.Count -= int(over)
	}
	r.Body = r.Body[: r.Count*stride : r.Count*stride]
	return r
}

// putRun puts r's records one by one, as their publish did, so a journal
// run re-coalesces into the slab runs it made. Caller holds p.mu.
func (p *partitionLog) putRun(r Run) {
	ts, stride := time.Unix(0, r.Nanos), r.KeyLen+r.ValLen
	for i := 0; i < r.Count; i++ {
		rec := r.Body[i*stride : (i+1)*stride]
		p.put(ts, rec[:r.KeyLen], rec[r.KeyLen:])
	}
}

// appendRun appends r's records to out as Records whose keys and values
// are cap-limited views of r.Body — a record without a key (key length
// 0) reads back with a nil one.
func appendRun(out []Record, topic string, partition int, r Run) []Record {
	ts := time.Unix(0, r.Nanos)
	stride := r.KeyLen + r.ValLen
	for i := 0; i < r.Count; i++ {
		at := i * stride
		mid, end := at+r.KeyLen, at+stride
		rec := Record{Topic: topic, Partition: partition, Offset: r.Offset + int64(i), Timestamp: ts, Value: r.Body[mid:end:end]}
		if r.KeyLen > 0 {
			rec.Key = r.Body[at:mid:mid]
		}
		out = append(out, rec)
	}
	return out
}
