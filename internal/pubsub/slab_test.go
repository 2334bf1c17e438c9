package pubsub

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"privapprox/internal/wal"
)

// slabImage is what one slab has written: its base, its record and run
// counts, its front bytes and its run directory.
type slabImage struct {
	base  int64
	image string
}

func slabImages(p *partitionLog) []slabImage {
	out := make([]slabImage, len(p.slabs))
	for i := range p.slabs {
		s := &p.slabs[i]
		out[i] = slabImage{s.base, fmt.Sprintf("base=%d n=%d runs=%d dir=%x front=%x",
			s.base, s.n, s.runs, s.buf[len(s.buf)-runEntryLen*s.runs:], s.buf[:s.used])}
	}
	return out
}

// slabBytes returns the bytes a partition's slabs have written: run
// headers and records at the front, run directories at the back.
func slabBytes(p *partitionLog) (n int) {
	for _, s := range p.slabs {
		n += s.used + runEntryLen*s.runs
	}
	return n
}

// TestColumnarRunSlabBytes: a columnar batch is stored as one run — a
// header and a directory entry per batch and per slab it reaches, not
// per record — so 10,000 shares of a 16-byte MID and a 22-byte value,
// published as 20 batches, take at most 40 B of slab each (54 B when
// every record carried its own frame header and index entry).
func TestColumnarRunSlabBytes(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cols := testCols(500, 16, 22)
	for range 20 {
		if err := b.PublishColumns("t", cols, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	p := b.topics["t"].partitions[0]
	if p.count != 10000 || len(p.slabs) < 2 {
		t.Fatalf("the log holds %d records in %d slabs; the test needs 10,000 over two slabs or more", p.count, len(p.slabs))
	}
	per := float64(slabBytes(p)) / float64(p.count)
	t.Logf("%.2f B of slab per record", per)
	if per > 40 {
		t.Errorf("%.2f B of slab per 38-byte record, want ≤ 40", per)
	}
}

// fuzzValLens are the value lengths FuzzPartitionLog draws from: empty
// (with an empty key, a zero-stride run), a share's, records that fill a
// slab in a few hundred or a few dozen, one that fills an empty slab
// exactly, and one larger than a slab.
var fuzzValLens = []int{0, 1, 22, 1000, 5000, slabSize - runHeaderLen - runEntryLen, slabSize + 1}

// FuzzPartitionLog applies a sequence of puts and trims to a durable
// partition log and compares it with a plain []Record model: from every
// retained offset, each and Fetch must read back every record's offset,
// timestamp, key (nil or present) and value; and no slab may hold two
// adjacent runs that one run could have held. Then the durable leg: the
// broker is reopened from its journal, which must restore every record —
// into the slabs the puts fill without a trim — and every session's
// newest sequence;
// and after a trim, fetches from below the memory floor must read the
// model back from the journal. ops is read three bytes at a time,
// [op, a, c]:
//   - op&7 == 7 trims at first + a/255 of the retained span;
//   - otherwise 1 + c%64 records (1 + c%2 past 5,000 value bytes) are
//     journaled as one run and put under the previous timestamp, or a
//     new one when op&8 is set, with key length {0, 1, 16}[(op>>4)%3]
//     and value length fuzzValLens[a%7], session-tagged by producer
//     1 + c>>7 when c&64 is set.
func FuzzPartitionLog(f *testing.F) {
	f.Add([]byte{ // a run that straddles two slabs, then one that grows past the next
		0x28, 4, 63, 0x20, 4, 63, 0x20, 4, 63, 0x20, 4, 63, 0x20, 4, 63,
	})
	f.Add([]byte{ // trims inside a run that straddles slabs
		0x28, 3, 63, 0x20, 3, 63, 0x20, 3, 63, 0x20, 3, 63, 0x20, 3, 63,
		0x07, 128, 0, 0x20, 3, 9, 0x07, 200, 0, 0x20, 3, 1, 0x07, 255, 0, 0x20, 3, 1,
	})
	f.Add([]byte{ // mixed strides, nil keys, zero strides, a slab-filling and an oversized record
		0x08, 0, 63, 0x08, 2, 9, 0x18, 2, 9, 0x00, 2, 0, 0x08, 5, 0, 0x28, 6, 1, 0x20, 6, 0,
		0x08, 0, 3, 0x00, 0, 3, 0x07, 100, 0, 0x28, 2, 63,
	})
	f.Add([]byte{ // two producers' sessions, a trim inside a straddling run
		0x28, 4, 127, 0x20, 4, 255, 0x20, 4, 200, 0x20, 4, 127, 0x07, 170, 0, 0x18, 2, 72,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		opts := wal.Options{SegmentBytes: 1 << 20}
		b, err := OpenBroker(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { b.Close() }()
		if err := b.CreateTopic("t", 1); err != nil {
			t.Fatal(err)
		}
		p := b.topics["t"].partitions[0]
		var model []Record
		producers := map[uint64]uint64{}
		ts, bytesPut, seq := time.Unix(0, 1), 0, uint64(0)
		for ; len(ops) >= 3 && bytesPut < 4<<20; ops = ops[3:] {
			op, a, c := ops[0], ops[1], ops[2]
			if op&7 == 7 {
				floor := p.first() + int64(a)*(p.count-p.first())/255
				p.trim(floor)
				if p.first() > floor {
					t.Fatalf("trim at %d released up to %d", floor, p.first())
				}
				continue
			}
			if op&8 != 0 {
				ts = ts.Add(time.Duration(a) + 1)
			}
			keyLen, valLen := []int{0, 1, 16}[(op>>4)%3], fuzzValLens[int(a)%len(fuzzValLens)]
			n := 1 + int(c)%64
			if valLen > 5000 {
				n = 1 + int(c)%2
			}
			cols := Columns{Count: n, KeyLen: keyLen, ValLen: valLen}
			for i := range n {
				off := len(model) + i
				cols.Keys = append(cols.Keys, bytes.Repeat([]byte{byte(off)}, keyLen)...)
				cols.Vals = append(cols.Vals, bytes.Repeat([]byte{byte(off * 7)}, valLen)...)
			}
			var pid uint64
			if c&64 != 0 {
				pid, seq = 1+uint64(c>>7), seq+1
				producers[pid] = seq
			}
			idxs := make([]int, n)
			for i := range idxs {
				idxs[i] = i
			}
			if err := p.journalSlice(ts, cols, idxs, pid, seq); err != nil {
				t.Fatal(err)
			}
			for i := range n {
				var key []byte
				if keyLen > 0 {
					key = cols.Key(i)
				}
				p.put(ts, key, cols.Val(i))
				model = append(model, Record{Topic: "t", Offset: int64(len(model)), Key: key, Value: cols.Val(i), Timestamp: ts})
				bytesPut += keyLen + valLen
			}
		}
		if p.count != int64(len(model)) {
			t.Fatalf("log holds %d records, model %d", p.count, len(model))
		}
		for i := range p.slabs {
			s := &p.slabs[i]
			for ri := 1; ri < s.runs; ri++ {
				prev, _ := s.entry(ri - 1)
				start, _ := s.entry(ri)
				if bytes.Equal(s.buf[prev:prev+runHeaderLen], s.buf[start:start+runHeaderLen]) {
					t.Fatalf("slab %d holds adjacent runs %d and %d of one timestamp and stride", i, ri-1, ri)
				}
			}
		}
		same := func(how string, from int64, got []Record) {
			t.Helper()
			want := model[from : from+int64(len(got))]
			for i, r := range got {
				w := want[i]
				if r.Offset != w.Offset || !r.Timestamp.Equal(w.Timestamp) || (r.Key == nil) != (w.Key == nil) ||
					!bytes.Equal(r.Key, w.Key) || !bytes.Equal(r.Value, w.Value) {
					t.Fatalf("%s from %d: record %d reads @%d t=%d key=%v (%d B) value %d B, want @%d t=%d key=%v (%d B) value %d B",
						how, from, i, r.Offset, r.Timestamp.UnixNano(), r.Key != nil, len(r.Key), len(r.Value),
						w.Offset, w.Timestamp.UnixNano(), w.Key != nil, len(w.Key), len(w.Value))
				}
			}
		}
		visit := func(from, to int64) []Record {
			var out []Record
			p.each(from, to, func(r Run) {
				if r.Count < 1 || r.Offset != from+int64(len(out)) {
					t.Fatalf("each from %d yields a run of %d at %d after %d records", from, r.Count, r.Offset, len(out))
				}
				out = appendRun(out, "t", 0, r)
			})
			if int64(len(out)) != to-from {
				t.Fatalf("each over [%d, %d) yields %d records", from, to, len(out))
			}
			return out
		}
		same("each", p.first(), visit(p.first(), p.count))
		for from := p.first(); from <= p.count; from++ {
			same("each", from, visit(from, min(p.count, from+97)))
			recs, err := b.Fetch("t", 0, from, 33)
			if err != nil || int64(len(recs)) != min(33, p.count-from) {
				t.Fatalf("Fetch from %d: %d records, %v", from, len(recs), err)
			}
			same("Fetch", from, recs)
		}

		// The durable leg: reopen, and read below the memory floor.
		floor := p.first()
		b.Close()
		if b, err = OpenBroker(dir, opts); err != nil {
			t.Fatal(err)
		}
		p = b.topics["t"].partitions[0]
		if p.count != int64(len(model)) || !maps.Equal(p.producers, producers) {
			t.Fatalf("reopened log holds %d records and sessions %v, want %d and %v", p.count, p.producers, len(model), producers)
		}
		untrimmed := newPartitionLog()
		for _, r := range model {
			untrimmed.put(r.Timestamp, r.Key, r.Value)
		}
		if !sameSlabs(p, untrimmed) {
			t.Fatal("the reopened log's slabs differ from the ones the puts fill without a trim")
		}
		p.trim(floor)
		mem := p.first()
		if mem > 0 {
			for _, at := range []int64{0, mem / 3, mem * 2 / 3, mem - 1} {
				p.trim(mem)
				recs, err := b.Fetch("t", 0, at, 33)
				if err != nil || int64(len(recs)) != min(33, p.count-at) {
					t.Fatalf("Fetch from %d below the memory floor %d: %d records, %v", at, mem, len(recs), err)
				}
				same("reloaded Fetch", at, recs)
				if p.first() != at {
					t.Fatalf("a fetch from %d reloaded from %d", at, p.first())
				}
			}
		}
	})
}

// sameSlabs reports whether two logs' slabs have written the same bases,
// counts, runs, directories and bytes.
func sameSlabs(a, b *partitionLog) bool {
	return slices.EqualFunc(a.slabs, b.slabs, func(x, y slab) bool {
		return x.base == y.base && x.n == y.n && x.runs == y.runs && bytes.Equal(x.buf[:x.used], y.buf[:y.used]) &&
			bytes.Equal(x.buf[len(x.buf)-runEntryLen*x.runs:], y.buf[len(y.buf)-runEntryLen*y.runs:])
	})
}
