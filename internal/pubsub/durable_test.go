package pubsub

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"privapprox/internal/wal"
)

func TestDurableBrokerReplaysPartitions(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("answer", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("control", 1); err != nil {
		t.Fatal(err)
	}
	type pub struct {
		part int
		off  int64
		key  []byte
		val  []byte
	}
	var pubs []pub
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%02d", i))
		val := []byte(fmt.Sprintf("value-%02d", i))
		part, off, err := publishAt(b, "answer", key, val)
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, pub{part, off, key, val})
	}
	// Keyless publishes on the control topic (nil keys must survive the
	// round trip as nil-or-empty, matching in-memory behavior).
	if err := publish(b, "control", nil, []byte("announcement-1")); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitOffset("agg", "answer", 2, 7); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// A fresh OpenBroker sees everything the killed one acknowledged.
	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if n, err := b2.Partitions("answer"); err != nil || n != 4 {
		t.Fatalf("replayed topic: %d partitions, err %v", n, err)
	}
	for _, p := range pubs {
		recs, err := fetch(b2, "answer", p.part, p.off, 1, 0)
		if err != nil || len(recs) != 1 {
			t.Fatalf("fetch %d/%d: %v (%d recs)", p.part, p.off, err, len(recs))
		}
		if !bytes.Equal(recs[0].Key, p.key) || !bytes.Equal(recs[0].Value, p.val) {
			t.Fatalf("record %d/%d did not round-trip: key=%q value=%q", p.part, p.off, recs[0].Key, recs[0].Value)
		}
	}
	recs, err := fetch(b2, "control", 0, 0, 10, 0)
	if err != nil || len(recs) != 1 || string(recs[0].Value) != "announcement-1" {
		t.Fatalf("control topic did not replay: %v / %+v", err, recs)
	}
	if len(recs[0].Key) != 0 {
		t.Fatalf("nil key came back as %q", recs[0].Key)
	}
	off, err := b2.CommittedOffset("agg", "answer", 2)
	if err != nil || off != 7 {
		t.Fatalf("committed offset did not replay: %d, %v", off, err)
	}

	// The restarted broker appends at the right offsets.
	_, off2, err := publishAt(b2, "control", nil, []byte("announcement-2"))
	if err != nil || off2 != 1 {
		t.Fatalf("post-restart publish landed at offset %d, err %v", off2, err)
	}
}

func TestDurableBrokerReplaysBatchesAndTimestamps(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{Policy: wal.PolicyEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("key", 3); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("key", testCols(32, 1, 3), 0, 0); err != nil {
		t.Fatal(err)
	}
	var wantRecs []Record
	for _, recs := range fetchAll(t, b, "key") {
		wantRecs = append(wantRecs, recs...)
	}
	if len(wantRecs) != 32 {
		t.Fatalf("batch landed %d of 32 records", len(wantRecs))
	}
	b.Close()

	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	for _, want := range wantRecs {
		recs, err := fetch(b2, "key", want.Partition, want.Offset, 1, 0)
		if err != nil || len(recs) != 1 {
			t.Fatal(err)
		}
		got := recs[0]
		if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("batch record did not round-trip at %d/%d", want.Partition, want.Offset)
		}
		// Timestamps are journaled at nanosecond precision.
		if !got.Timestamp.Equal(want.Timestamp) {
			t.Fatalf("timestamp drifted: %v → %v", want.Timestamp, got.Timestamp)
		}
	}
}

func TestDurableBrokerRejectsUnsafeTopicName(t *testing.T) {
	b, err := OpenBroker(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.CreateTopic("../escape", 1); !errors.Is(err, ErrDurable) {
		t.Fatalf("path-traversal topic accepted: %v", err)
	}
	if err := b.CreateTopic("ok-topic.v1", 1); err != nil {
		t.Fatalf("safe topic rejected: %v", err)
	}
}

// TestCommitOffsetMonotonic is the regression test for the rewind bug:
// a lagging committer writing a lower offset must not rewind the group.
func TestCommitOffsetMonotonic(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("answer", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitOffset("g", "answer", 0, 10); err != nil {
		t.Fatal(err)
	}
	// The laggard: a lower commit is ignored, not an error.
	if err := b.CommitOffset("g", "answer", 0, 4); err != nil {
		t.Fatal(err)
	}
	if off, _ := b.CommittedOffset("g", "answer", 0); off != 10 {
		t.Fatalf("lagging commit rewound the group: %d, want 10", off)
	}
	// Equal commits are idempotent; higher ones advance.
	if err := b.CommitOffset("g", "answer", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitOffset("g", "answer", 0, 11); err != nil {
		t.Fatal(err)
	}
	if off, _ := b.CommittedOffset("g", "answer", 0); off != 11 {
		t.Fatalf("higher commit did not advance: %d, want 11", off)
	}
	// Other partitions and groups are independent.
	if err := b.CommitOffset("g", "answer", 1, 3); err != nil {
		t.Fatal(err)
	}
	if off, _ := b.CommittedOffset("g", "answer", 1); off != 3 {
		t.Fatalf("partition 1 commit lost: %d", off)
	}
	if err := b.CommitOffset("h", "answer", 0, 2); err != nil {
		t.Fatal(err)
	}
	if off, _ := b.CommittedOffset("h", "answer", 0); off != 2 {
		t.Fatalf("group h commit lost: %d", off)
	}
}

func TestDurableCommitMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("answer", 1); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{5, 9, 3, 12, 6} { // journal order, with laggards
		if err := b.CommitOffset("g", "answer", 0, off); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if off, _ := b2.CommittedOffset("g", "answer", 0); off != 12 {
		t.Fatalf("restored offset %d, want 12", off)
	}
}

func TestDurableBrokerSurvivesTornPartitionTail(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("answer", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := publish(b, "answer", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()

	// Corrupt the partition log's tail the way a crash mid-write would:
	// append half a frame straight to the newest segment file.
	segs, err := filepath.Glob(filepath.Join(dir, "topic-answer", "p0000", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, 0xBA, 0xD0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatalf("torn partition tail must not prevent restart: %v", err)
	}
	defer b2.Close()
	end, err := b2.EndOffset("answer", 0)
	if err != nil || end != 10 {
		t.Fatalf("end offset after torn-tail recovery: %d, %v", end, err)
	}
	// Publishing resumes at the recovered offset.
	_, off, err := publishAt(b2, "answer", nil, []byte("resumed"))
	if err != nil || off != 10 {
		t.Fatalf("post-recovery publish: offset %d, err %v", off, err)
	}
}

func TestConsumerSeekAndPositions(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("answer", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := publish(b, "answer", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewConsumer(b, "g", "answer")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll(100)
	if err != nil || len(recs) != 6 {
		t.Fatalf("poll: %d recs, %v", len(recs), err)
	}
	pos := c.Positions()
	if pos["answer"][0]+pos["answer"][1] != 6 {
		t.Fatalf("positions don't cover the log: %+v", pos)
	}
	// Positions is a snapshot: mutating it must not move the consumer.
	pos["answer"][0] = 0
	if again, _ := c.Poll(100); len(again) != 0 {
		t.Fatal("mutating the Positions snapshot moved the consumer")
	}
	// Seek rewinds for a re-read.
	if err := c.Seek("answer", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Seek("answer", 1, 0); err != nil {
		t.Fatal(err)
	}
	if again, _ := c.Poll(100); len(again) != 6 {
		t.Fatal("Seek(0) did not rewind the consumer")
	}
	if err := c.Seek("nope", 0, 0); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("seek on unknown topic: %v", err)
	}
	if err := c.Seek("answer", 9, 0); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("seek on unknown partition: %v", err)
	}
	if err := c.Seek("answer", 0, -1); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative seek: %v", err)
	}
}

// TestDurableCommitZeroAllocs is the allocgate leg of a durable commit:
// journaling a consumer-group commit to the meta WAL encodes into the
// broker's scratch, so a core.System with a DataDir, which commits after
// every drain, allocates nothing per commit.
func TestDurableCommitZeroAllocs(t *testing.T) {
	b, err := OpenBroker(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.CreateTopic("answer", 2); err != nil {
		t.Fatal(err)
	}
	var offset int64
	allocs := testing.AllocsPerRun(200, func() {
		offset++
		if err := b.CommitOffset("aggregator", "answer", 1, offset); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a durable CommitOffset allocates %.1f times, want 0", allocs)
	}
	if off, err := b.CommittedOffset("aggregator", "answer", 1); err != nil || off != offset {
		t.Fatalf("committed offset %d (%v), want %d", off, err, offset)
	}
}

// segmentOf returns the one segment file of a durable broker's partition
// 0 of topic.
func segmentOf(t *testing.T, dir, topic string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "topic-"+topic, "p0000", "wal-*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("partition segments %v (%v), want one", segs, err)
	}
	return segs[0]
}

// TestColumnarJournalBytes: a partition's slice of a columnar batch is
// one journal record — a frame, a session tag and a run header per
// batch, not per record — so 10,000 shares of a 16-byte MID and a
// 22-byte value, published as 20 session batches, take at most 42 B of
// partition journal each, WAL framing included (75 B when every record
// carried its own frame, tag and header).
func TestColumnarJournalBytes(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cols := testCols(500, 16, 22)
	for seq := uint64(1); seq <= 20; seq++ {
		if err := b.PublishColumns("t", cols, 7, seq); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(segmentOf(t, dir, "t"))
	if err != nil {
		t.Fatal(err)
	}
	per := float64(info.Size()) / 10000
	t.Logf("%.2f B of journal per record", per)
	if per > 42 {
		t.Errorf("%.2f B of journal per 38-byte record, want ≤ 42", per)
	}
}

// TestTornSessionSliceIsRetriedWhole: a write torn inside a session
// batch's journal record loses the whole slice, its dedup slot with it,
// so the producer's retry of the same (pid, seq) after the restart is
// applied whole — not deduplicated against a prefix of tagged records
// that survived the tear, which loses the rest of the batch.
func TestTornSessionSliceIsRetriedWhole(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cols := sessionCols('a', 10)
	if err := b.PublishColumns("t", cols, 7, 1); err != nil {
		t.Fatal(err)
	}
	b.Close()
	seg := segmentOf(t, dir, "t")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()*45/100); err != nil { // a crash partway through the batch
		t.Fatal(err)
	}

	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if err := b2.PublishColumns("t", cols, 7, 1); err != nil {
		t.Fatal(err)
	}
	end, _ := b2.EndOffset("t", 0)
	if st := b2.Stats(); end != 10 || st.Duplicates != 0 {
		t.Fatalf("after the torn write and the retry the partition holds %d records (%d deduplicated), want 10 and 0", end, st.Duplicates)
	}
	recs, err := fetch(b2, "t", 0, 0, 10, 0)
	if err != nil || len(recs) != 10 {
		t.Fatalf("fetch: %d records, %v", len(recs), err)
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Key, cols.Key(i)) || !bytes.Equal(rec.Value, cols.Val(i)) {
			t.Fatalf("record %d reads back as %q=%q", i, rec.Key, rec.Value)
		}
	}
}

// TestDurableReloadCutsRunsAtBothEnds: the second of three 200-record
// batches straddles two slabs, and a commit inside it releases the first
// slab, so the memory floor lies inside that batch's journal run. A fetch
// from 0 reads the gap back with that run cut at the floor, into slabs
// byte-identical to the ones the publishes filled; once released again,
// a fetch that starts inside the run reads back exactly its records from
// there, the run cut at both ends.
func TestDurableReloadCutsRunsAtBothEnds(t *testing.T) {
	b, err := OpenBroker(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := b.PublishColumns("t", wideCols(byte('a'+seq), 200), 7, seq); err != nil {
			t.Fatal(err)
		}
	}
	p := b.topics["t"].partitions[0]
	published := slabImages(p)
	if err := b.CommitOffset("agg", "t", 0, 300); err != nil {
		t.Fatal(err)
	}
	first, _ := retained(t, b)
	if first <= 200 || first >= 300 {
		t.Fatalf("the memory floor is %d, want one inside the second batch's run [200, 400)", first)
	}
	check := func(from int64) {
		t.Helper()
		recs, err := fetch(b, "t", 0, from, 1000, 0)
		if err != nil || int64(len(recs)) != 600-from {
			t.Fatalf("fetch from %d: %d records, %v; want %d", from, len(recs), err, 600-from)
		}
		for i, rec := range recs {
			off := from + int64(i)
			tag := byte('a' + 1 + off/200)
			if key := fmt.Sprintf("%c-key-%03d", tag, off%200); rec.Offset != off || string(rec.Key) != key ||
				!bytes.Equal(rec.Value, bytes.Repeat([]byte{tag}, 1000)) {
				t.Fatalf("fetch from %d: record %d reads back as offset %d key %q, want key %q", from, off, rec.Offset, rec.Key, key)
			}
		}
	}
	check(0)
	reloaded := slabImages(p)
	if len(reloaded) != len(published) {
		t.Fatalf("after the reload the partition holds %d slabs, the publishes filled %d", len(reloaded), len(published))
	}
	for i := range reloaded {
		if reloaded[i] != published[i] {
			t.Fatalf("reloaded slab %d\n got %.200s\nwant %.200s", i, reloaded[i].image, published[i].image)
		}
	}
	if err := b.CommitOffset("agg", "t", 0, 301); err != nil {
		t.Fatal(err)
	}
	if again, _ := retained(t, b); again != first {
		t.Fatalf("the second commit left the memory floor at %d, want %d", again, first)
	}
	check(230)
	if again, _ := retained(t, b); again != 230 {
		t.Fatalf("a fetch from 230 reloaded the partition from %d", again)
	}
}

// TestOpenBrokerRefusesOldFormat: a data directory written in the
// retired one-record-per-offset journal format — checked in beside the
// WAL package — is refused with wal.ErrOldFormat, and no file in it is
// changed, added or truncated.
func TestOpenBrokerRefusesOldFormat(t *testing.T) {
	dir := t.TempDir()
	want := copyTree(t, filepath.Join("..", "wal", "testdata", "old-format-broker"), dir)
	if b, err := OpenBroker(dir, wal.Options{}); !errors.Is(err, wal.ErrOldFormat) {
		if err == nil {
			b.Close()
		}
		t.Fatalf("OpenBroker = %v, want wal.ErrOldFormat", err)
	}
	if got := copyTree(t, dir, t.TempDir()); !maps.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("the refused directory changed: %d files, want %d", len(got), len(want))
	}
}

// copyTree copies the regular files under src to dst and returns their
// contents by relative path.
func copyTree(t *testing.T, src, dst string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[rel] = data
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCreateTopicRefusesHugePartitionCount: a topic's partition count
// sizes its allocation and, on a durable broker, its WAL directories. A
// count above the bound (1,024) is refused in process and in a meta
// journal a durable broker replays. Over TCP no request creates a topic:
// the retired opcode 1 is refused as unknown, whatever count it carries,
// and the connection goes on serving.
func TestCreateTopicRefusesHugePartitionCount(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1025); !errors.Is(err, ErrWire) {
		t.Fatalf("CreateTopic with 1,025 partitions: %v, want ErrWire", err)
	}
	if err := b.CreateTopic("t", 1024); err != nil {
		t.Fatalf("CreateTopic with 1,024 partitions: %v", err)
	}

	_, srv, _ := startServer(t)
	conn := rawConn(t, srv.Addr())
	for _, n := range []uint32{2, 1025, 1 << 24, math.MaxUint32} {
		var e enc
		e.byte(1)
		e.str("huge")
		e.uint32(n)
		if err := writeFrame(conn, e.buf); err != nil {
			t.Fatal(err)
		}
		if msg := readStatusError(t, conn); !strings.HasSuffix(msg, "wire protocol error: unknown opcode 1") {
			t.Fatalf("opcode 1 asking for %d partitions: %q, want unknown opcode 1", n, msg)
		}
	}
	var e enc
	e.byte(opPartitions)
	e.str("huge")
	if err := writeFrame(conn, e.buf); err != nil {
		t.Fatal(err)
	}
	if msg := readStatusError(t, conn); !strings.Contains(msg, "no such topic") {
		t.Fatalf("next request on the connection: %q, want no such topic", msg)
	}

	dir := t.TempDir()
	meta, err := wal.Open(filepath.Join(dir, "meta"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := meta.Append(1, appendMetaTopic(nil, "huge", 1025)); err != nil {
		t.Fatal(err)
	}
	meta.Close()
	if b, err := OpenBroker(dir, wal.Options{}); !errors.Is(err, ErrDurable) {
		if err == nil {
			b.Close()
		}
		t.Fatalf("OpenBroker over a 1,025-partition topic record: %v, want ErrDurable", err)
	}
}

// FuzzMetaRecord drives the meta-journal decoders — the topic and commit
// records a restarting durable broker replays — with arbitrary records:
// they must never panic, must refuse with an error wrapping ErrDurable,
// and whatever they accept must re-encode to exactly the bytes they were
// given.
func FuzzMetaRecord(f *testing.F) {
	topic := appendMetaTopic(nil, "answers.v1", 2)
	commit := appendMetaCommit(nil, "aggregator", "answers.v1", 1, 4096)
	f.Add(topic)
	f.Add(topic[:len(topic)-1])
	f.Add(append(bytes.Clone(topic), 0))
	f.Add(appendMetaTopic(nil, "answers.v1", 1<<24))
	f.Add(appendMetaTopic(nil, "../escape", 1))
	f.Add(commit)
	f.Add(commit[:len(commit)-1])
	f.Add(appendMetaCommit(nil, "g", "t", 0, -1))
	f.Add([]byte{metaCommit, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 {
			return
		}
		var again []byte
		var err error
		switch payload[0] {
		case metaTopic:
			var topic string
			var n int
			if topic, n, err = decodeMetaTopic(payload); err == nil {
				again = appendMetaTopic(nil, topic, n)
			}
		case metaCommit:
			var group, topic string
			var part int
			var off int64
			if group, topic, part, off, err = decodeMetaCommit(payload); err == nil {
				again = appendMetaCommit(nil, group, topic, part, off)
			}
		default:
			return
		}
		if err != nil {
			if !errors.Is(err, ErrDurable) {
				t.Fatalf("decode error %v does not wrap ErrDurable", err)
			}
			return
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded record\n got %x\nwant %x", again, payload)
		}
	})
}
