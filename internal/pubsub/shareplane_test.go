package pubsub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"privapprox/internal/wal"
)

// handle answers one request frame into a buffer of its own, interning
// no names — the form the frame fuzzers drive; a served connection
// reuses its response buffer and its name table.
func (s *Server) handle(req []byte) []byte { return s.respond(nil, req, nil) }

// fetcher is a non-blocking fetch as Records.
type fetcher func(topic string, partition int, offset int64, max int) ([]Record, error)

// fetchNow is tr's non-blocking fetch as Records.
func fetchNow(tr Transport) fetcher {
	return func(topic string, partition int, offset int64, max int) ([]Record, error) {
		return fetch(tr, topic, partition, offset, max, 0)
	}
}

// runRecords returns one partition's runs as Records viewing their
// bodies.
func runRecords(topic string, partition int, runs []Run) []Record {
	var out []Record
	for _, r := range runs {
		out = appendRun(out, topic, partition, r)
	}
	return out
}

// canon renders every field of every record of every partition, fetched
// chunk records at a time so spans start and end inside slabs: the form
// in which two views of one log are compared.
func canon(t *testing.T, fetch fetcher, topic string, partitions, chunk int) string {
	t.Helper()
	var out bytes.Buffer
	for p := 0; p < partitions; p++ {
		for off := int64(0); ; {
			recs, err := fetch(topic, p, off, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				break
			}
			for _, r := range recs {
				fmt.Fprintf(&out, "%s/%d@%d t=%d keyed=%t k=%x v=%x\n",
					r.Topic, r.Partition, r.Offset, r.Timestamp.UnixNano(), r.Key != nil, r.Key, r.Value)
			}
			off = recs[len(recs)-1].Offset + 1
		}
	}
	return out.String()
}

// TestFetchIsAPrivateCopy: whatever a caller does to a fetched record —
// overwrite its bytes, append to its key or value — touches neither the
// log nor the neighbouring records of the same fetch, in-process and
// over TCP.
func TestFetchIsAPrivateCopy(t *testing.T) {
	b, _, cli := startServer(t)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := publish(b, "t", []byte{'k', byte('0' + i)}, []byte{'v', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := canon(t, fetchNow(b), "t", 1, 10)
	for name, fetch := range map[string]fetcher{"inproc": fetchNow(b), "tcp": fetchNow(cli)} {
		recs, err := fetch("t", 0, 0, 10)
		if err != nil || len(recs) != 3 {
			t.Fatalf("%s: fetch = %d records, %v", name, len(recs), err)
		}
		for i := range recs[1].Key {
			recs[1].Key[i] = 'X'
		}
		for i := range recs[1].Value {
			recs[1].Value[i] = 'X'
		}
		_ = append(recs[0].Key, "overrun"...)
		_ = append(recs[0].Value, "overrun"...)
		_ = append(recs[1].Key, "overrun"...)
		if got := fmt.Sprintf("%s=%s %s=%s", recs[0].Key, recs[0].Value, recs[2].Key, recs[2].Value); got != "k0=v0 k2=v2" {
			t.Errorf("%s: neighbours of the mutated record read %s", name, got)
		}
		if got := canon(t, fetchNow(b), "t", 1, 10); got != want {
			t.Errorf("%s: mutating fetched records changed the log:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestPollRunsOwnsItsMemory: the runs PollRuns hands out are the
// consumer's own — writing over their bodies reaches neither the log nor
// a later poll — and a consumer's polls reuse one arena, in-process and
// over TCP alike: the run slice, and the bytes the bodies were fetched
// into (an in-process copy, a TCP reply frame). The arena outlives an
// empty poll, which keeps no view of it; the consumer releases it after
// idlePolls empty polls in a row, and a poll that grew it beyond
// maxBatchBytes leaves none behind. A poll below a durable broker's
// memory floor, read back from its WAL, lands in the consumer's own
// memory just the same.
func TestPollRunsOwnsItsMemory(t *testing.T) {
	b, err := OpenBroker(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("t", testCols(200, 16, 22), 0, 0); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialOptions(srv.Addr(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// poll reads n records from offset from and checks them against the
	// log.
	poll := func(name string, c *Consumer, max, n int, from int64) []Run {
		t.Helper()
		runs, err := c.PollRuns(max, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		log, err := fetch(b, "t", 0, from, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := runRecords("t", 0, runs)
		if len(got) != n || len(log) != n {
			t.Fatalf("%s: a poll from %d read %d records, want %d of the log's %d", name, from, len(got), n, len(log))
		}
		for i, r := range got {
			w := log[i]
			if r.Offset != w.Offset || !r.Timestamp.Equal(w.Timestamp) || !bytes.Equal(r.Key, w.Key) || !bytes.Equal(r.Value, w.Value) {
				t.Fatalf("%s: record %d reads @%d %x=%x, the log holds @%d %x=%x", name, i, r.Offset, r.Key, r.Value, w.Offset, w.Key, w.Value)
			}
		}
		return runs
	}
	overwrite := func(name string, runs []Run) {
		t.Helper()
		want := canon(t, fetchNow(b), "t", 1, 4096)
		for _, r := range runs {
			for i := range r.Body {
				r.Body[i] = 'X'
			}
		}
		if got := canon(t, fetchNow(b), "t", 1, 4096); got != want {
			t.Fatalf("%s: writing over a poll's runs changed the log", name)
		}
	}
	// empty polls at the log end; the consumer must keep no view of a
	// fetch.
	empty := func(name string, c *Consumer, polls int) {
		t.Helper()
		for range polls {
			runs, err := c.PollRuns(4096, 0)
			if err != nil || runs != nil {
				t.Fatalf("%s: a poll at the log end = %d runs, %v", name, len(runs), err)
			}
		}
		if slices.ContainsFunc(c.runs[:cap(c.runs)], func(r Run) bool { return r.Body != nil }) {
			t.Errorf("%s: after an empty poll the consumer holds a view of a fetch", name)
		}
	}
	// inArena reports whether runs sit in the run slice at runs0 and
	// their bodies in the byte arena mem.
	inArena := func(runs []Run, runs0 *Run, mem []byte) bool {
		for _, r := range runs {
			if !inside(r.Body, mem[:cap(mem)]) {
				return false
			}
		}
		return unsafe.SliceData(runs) == runs0
	}
	for _, tc := range []struct {
		name string
		t    Transport
	}{{"inproc", b}, {"tcp", cli}} {
		c, err := NewConsumer(tc.t, "g-"+tc.name, "t")
		if err != nil {
			t.Fatal(err)
		}
		overwrite(tc.name, poll(tc.name, c, 120, 120, 0))
		runs0, mem := unsafe.SliceData(c.runs), c.mem
		if !inArena(poll(tc.name, c, 60, 60, 120), runs0, mem) {
			t.Errorf("%s: the second poll's runs or bodies are not in the first's arena", tc.name)
		}
		end, err := b.EndOffset("t", 0)
		if err != nil {
			t.Fatal(err)
		}
		poll(tc.name, c, 4096, int(end-180), 180)
		runs0, mem = unsafe.SliceData(c.runs), c.mem
		empty(tc.name, c, 1)
		if err := b.PublishColumns("t", testCols(30, 16, 22), 0, 0); err != nil {
			t.Fatal(err)
		}
		if !inArena(poll(tc.name, c, 4096, 30, end), runs0, mem) {
			t.Errorf("%s: after an empty poll, the next poll's runs or bodies are not in the drain's arena", tc.name)
		}
		empty(tc.name, c, idlePolls-1)
		if cap(c.mem) == 0 {
			t.Errorf("%s: %d empty polls released the arena; it takes %d", tc.name, idlePolls-1, idlePolls)
		}
		empty(tc.name, c, 1)
		if c.mem != nil {
			t.Errorf("%s: after %d empty polls the consumer holds %d bytes", tc.name, idlePolls, cap(c.mem))
		}
	}

	// A poll that needed an arena beyond maxBatchBytes leaves it to its
	// runs alone: the consumer does not keep it for the next poll.
	big, _, bigCli := startServer(t)
	if err := big.CreateTopic("big", 1); err != nil {
		t.Fatal(err)
	}
	if err := big.PublishColumns("big", testCols(3, 16, maxBatchBytes/3+1), 0, 0); err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]Transport{"inproc": big, "tcp": bigCli} {
		c, err := NewConsumer(tr, "g", "big")
		if err != nil {
			t.Fatal(err)
		}
		runs, err := c.PollRuns(4096, 0)
		size := 0
		for _, r := range runs {
			size += len(r.Body)
		}
		if err != nil || len(runRecords("big", 0, runs)) != 3 || size <= maxBatchBytes {
			t.Fatalf("%s: the big poll read %d runs of %d bytes, %v", name, len(runs), size, err)
		}
		if c.mem != nil {
			t.Errorf("%s: a poll of more than maxBatchBytes left a %d-byte arena behind", name, cap(c.mem))
		}
	}

	// A group that commits the whole log releases it from memory; a
	// consumer that seeks back below it reads it back from the WAL.
	end, err := b.EndOffset("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConsumer(b, "g-commit", "t")
	if err != nil {
		t.Fatal(err)
	}
	poll("commit", c, 4096, int(end), 0)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	p, err := b.partition("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	floor := p.first()
	p.mu.Unlock()
	if floor != end {
		t.Fatalf("the memory floor is %d after a commit of the whole log, want %d", floor, end)
	}
	late, err := NewConsumer(b, "g-late", "t")
	if err == nil {
		err = late.Seek("t", 0, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	overwrite("reload", poll("reload", late, 4096, int(end), 0))
}

// TestLogReadsTheSameThreeWays publishes keyed shares, nil-key control
// records, mixed sizes, a record larger than a slab and batches that
// roll over slab boundaries into a durable broker, and requires the
// in-process fetch, the TCP fetch and the fetch after an OpenBroker
// replay to agree on every field of every record.
func TestLogReadsTheSameThreeWays(t *testing.T) {
	const topic, partitions = "answer", 3
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic(topic, partitions); err != nil {
		t.Fatal(err)
	}
	published := 0
	add := func(key, value []byte) {
		t.Helper()
		if err := publish(b, topic, key, value); err != nil {
			t.Fatal(err)
		}
		published++
	}
	cols := testCols(10*slabSize/38, 16, 22) // over three slabs per partition
	if err := b.PublishColumns(topic, head(cols, 7), 0, 0); err != nil {
		t.Fatal(err)
	}
	add(nil, []byte("control record"))
	add([]byte("k"), nil)
	add(nil, bytes.Repeat([]byte{0xA5}, slabSize+1))
	if err := b.PublishColumns(topic, cols, 9, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		add([]byte{byte(i)}, bytes.Repeat([]byte{byte(i)}, i*97))
	}
	published += 7 + cols.Count
	for p := 0; p < partitions; p++ {
		if n := len(b.topics[topic].partitions[p].slabs); n < 3 {
			t.Fatalf("partition %d spans %d slabs; the test needs it to roll over", p, n)
		}
	}

	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialOptions(srv.Addr(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	inproc := canon(t, fetchNow(b), topic, partitions, 1000)
	overTCP := canon(t, fetchNow(cli), topic, partitions, 1777)
	cli.Close()
	srv.Close()
	b.Close()

	if n := bytes.Count([]byte(inproc), []byte("\n")); n != published {
		t.Fatalf("fetched %d records, published %d", n, published)
	}
	if overTCP != inproc {
		t.Error("the TCP fetch and the in-process fetch disagree")
	}
	reopened, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if replayed := canon(t, fetchNow(reopened), topic, partitions, 4096); replayed != inproc {
		t.Error("the log replayed from the WAL differs from the log that was published")
	}
}

// inside reports whether view lies within frame's backing array.
func inside(view, frame []byte) bool {
	if cap(view) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return at >= lo && at+uintptr(cap(view)) <= lo+uintptr(len(frame))
}

// appendFetchRun appends one run of an opFetch response body.
func appendFetchRun(body []byte, off, ts uint64, keyLen, valLen, count uint32, records []byte) []byte {
	body = binary.BigEndian.AppendUint64(body, off)
	body = binary.BigEndian.AppendUint64(body, ts)
	body = binary.BigEndian.AppendUint32(body, keyLen)
	body = binary.BigEndian.AppendUint32(body, valLen)
	body = binary.BigEndian.AppendUint32(body, count)
	return append(body, records...)
}

// FuzzFetchResponse drives the client-side fetch decoder, asked for at
// most max records from offset 0 of partition 0, with arbitrary response
// bodies appended to a fetch arena after prior runs and bytes: it must
// never panic, must hand out at most max records with consecutive
// offsets from 0 in no more runs than records, sized exactly (never by a
// claimed count), whose key and value bytes the body holds; and every
// key and value must be a cap-limited view inside the frame it was
// given, a key never empty but nil. A refused response appends nothing
// to the runs, and neither outcome touches the runs and bytes before it.
func FuzzFetchResponse(f *testing.F) {
	var e enc
	if err := goldenFetchBroker(f).encodeFetch(&e, "t", 0, 0, 10); err != nil {
		f.Fatal(err)
	}
	runs := func(rs ...[]byte) []byte {
		body := binary.BigEndian.AppendUint32(nil, uint32(len(rs)))
		for _, r := range rs {
			body = append(body, r...)
		}
		return body
	}
	f.Add(e.buf[1:], uint16(10), uint8(0))
	f.Add(e.buf[1:len(e.buf)-3], uint16(10), uint8(0))
	f.Add([]byte{}, uint16(10), uint8(0))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<31), uint16(10), uint8(0)) // a run count with nothing behind it
	f.Add(e.buf[1:], uint16(4), uint8(0))                                  // one record more than asked for
	f.Add(runs(appendFetchRun(nil, 0, 1, 0, 0, 1<<31, nil)), uint16(10), uint8(0))
	f.Add(runs(appendFetchRun(nil, 0, 1, 0, 0, 7, nil)), uint16(10), uint8(0)) // zero stride within max
	f.Add(runs(appendFetchRun(nil, 0, 1, ^uint32(0), ^uint32(0), ^uint32(0), []byte("kv"))), uint16(10), uint8(0))
	f.Add(runs(appendFetchRun(nil, 0, 1, 1, 1, 1, []byte("kv")), appendFetchRun(nil, 2, 1, 1, 1, 1, []byte("kv"))), uint16(10), uint8(0))
	// The same, behind an earlier fetch of the same poll.
	f.Add(e.buf[1:], uint16(10), uint8(3))
	f.Add(e.buf[1:len(e.buf)-3], uint16(10), uint8(3))
	f.Add(e.buf[1:], uint16(4), uint8(1))
	f.Add(runs(appendFetchRun(nil, 0, 1, 1, 1, 1, []byte("kv")), appendFetchRun(nil, 2, 1, 1, 1, 1, []byte("kv"))), uint16(10), uint8(2))

	f.Fuzz(func(t *testing.T, body []byte, max uint16, prior uint8) {
		// An earlier fetch's prior runs, one byte of the arena each, and
		// then this reply's frame: status byte and body.
		mem := bytes.Repeat([]byte{0xAB}, int(prior))
		var before []Run
		for i := range mem {
			before = append(before, Run{Offset: 100 + int64(i), Count: 1, ValLen: 1, Body: mem[i : i+1 : i+1]})
		}
		had := slices.Clone(before)
		mem = append(append(mem, 0), body...)
		frame := mem[len(had)+1:]
		d := wireReader(frame)
		runs, err := decodeFetch(&d, 0, uint32(max), before)
		if !slices.EqualFunc(runs[:min(len(runs), len(had))], had, func(a, b Run) bool {
			return a.Offset == b.Offset && a.Count == b.Count && unsafe.SliceData(a.Body) == unsafe.SliceData(b.Body)
		}) || len(runs) < len(had) || !bytes.Equal(mem[:len(had)], bytes.Repeat([]byte{0xAB}, len(had))) {
			t.Fatalf("the decode touched the %d runs and bytes before the reply", len(had))
		}
		runs = runs[len(had):]
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("decode error %v does not wrap ErrWire", err)
			}
			if len(runs) != 0 {
				t.Fatalf("a refused response appended %d runs", len(runs))
			}
			return
		}
		if len(runs) > int(max) {
			t.Fatalf("%d runs for at most %d records", len(runs), max)
		}
		recs := runRecords("t", 0, runs)
		if len(recs) > int(max) {
			t.Fatalf("%d records for at most %d", len(recs), max)
		}
		size := 4
		for i, r := range recs {
			if r.Offset != int64(i) || r.Partition != 0 || r.Topic != "t" {
				t.Fatalf("record %d reads as %s/%d@%d", i, r.Topic, r.Partition, r.Offset)
			}
			if r.Key != nil && len(r.Key) == 0 {
				t.Fatalf("record %d has an empty, non-nil key", i)
			}
			for _, view := range [][]byte{r.Key, r.Value} {
				if !inside(view, frame) || cap(view) != len(view) {
					t.Fatalf("view %p len %d cap %d escapes the %d-byte frame", view, len(view), cap(view), len(frame))
				}
			}
			size += len(r.Key) + len(r.Value)
		}
		if len(recs) > 0 {
			size += fetchRunHeaderLen
		}
		if size > len(body) {
			t.Fatalf("%d records of %d bytes out of a %d-byte body", len(recs), size, len(body))
		}
	})
}

// TestReadersFollowARollingLog: publishers roll a one-partition log
// over several slabs while an in-process and a TCP reader follow it.
// Besides single-record publishers, one publisher sends columnar
// batches, whose runs straddle slabs and which the readers' fetches end
// inside, and one appends single records under the one timestamp a
// coarse clock would give them all, so that its run grows while the
// readers fetch inside it. Every reader must see every offset exactly
// once, in order, each record intact — run under the race detector, this
// is what checks that a fetch never reads a run header, a directory
// entry or a record mid-write.
func TestReadersFollowARollingLog(t *testing.T) {
	const publishers, each, batch = 4, 3000, 250
	const total = (publishers + 2) * each
	b, _, cli := startServer(t)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	p := b.topics["t"].partitions[0]
	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := []byte(fmt.Sprintf("%d/%d", w, i))
				if err := publish(b, "t", key, bytes.Repeat(key, 8)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < each; i += batch {
			cols := Columns{Count: batch, KeyLen: 7, ValLen: 56}
			for j := i; j < i+batch; j++ {
				key := fmt.Sprintf("c/%05d", j)
				cols.Keys = append(cols.Keys, key...)
				cols.Vals = append(cols.Vals, strings.Repeat(key, 8)...)
			}
			if err := b.PublishColumns("t", cols, 0, 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	ts := time.Now()
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			key := []byte(fmt.Sprintf("r/%05d", i))
			p.mu.Lock()
			p.put(ts, key, bytes.Repeat(key, 8))
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}()
	for name, fetch := range map[string]fetcher{"inproc": fetchNow(b), "tcp": fetchNow(cli)} {
		wg.Add(1)
		go func(name string, fetch fetcher) {
			defer wg.Done()
			for next := int64(0); next < total; {
				recs, err := fetch("t", 0, next, 500)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				for _, r := range recs {
					if r.Offset != next || !bytes.Equal(r.Value, bytes.Repeat(r.Key, 8)) {
						t.Errorf("%s: offset %d (want %d) reads %q = %q", name, r.Offset, next, r.Key, r.Value)
						return
					}
					next++
				}
			}
		}(name, fetch)
	}
	wg.Wait()
	if n := len(p.slabs); n < 3 {
		t.Fatalf("the log spans %d slabs; the test needs it to roll over", n)
	}
	grown := 0
	p.each(0, total, func(r Run) {
		if r.Nanos == ts.UnixNano() && r.Count > 1 {
			grown++
		}
	})
	if grown == 0 {
		t.Fatal("no run of the repeated timestamp holds two records: the test needs one to grow")
	}
}
