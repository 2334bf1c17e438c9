package pubsub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"privapprox/internal/codec"
	"privapprox/internal/wal"
)

// errDurable reports a malformed journal record or data directory.
var errDurable = errors.New("pubsub: durable broker")

// Meta-journal record types.
const (
	metaTopic  = byte(0x01) // topic created: topic, partitions
	metaCommit = byte(0x02) // consumer commit: group, topic, partition, offset
)

// durability is a broker's connection to its data directory: one meta
// WAL journaling topic creation and consumer-group commits, plus one WAL
// per partition (held by the partitionLog) journaling published records.
// Meta appends are serialized by the broker mutex every caller already
// holds, which also guards buf, the meta-record scratch.
type durability struct {
	dir  string
	opts wal.Options
	meta *wal.Log
	buf  []byte
}

// OpenBroker opens (or creates) a durable broker rooted at dir: topics,
// partition contents, and consumer-group offsets are journaled to
// write-ahead logs under dir and replayed on the next OpenBroker, so a
// killed broker restarts with every acknowledged record and commit
// intact. Every partition WAL is replayed whole — one journal record per
// run, a frame covering its offsets, the dedup slot rebuilt from each
// session record — then memory is trimmed to the restored committed
// floor. A directory written in the retired one-record-per-offset format
// is refused with wal.ErrOldFormat before anything in it is changed. opts
// sets the fsync policy and segment size.
func OpenBroker(dir string, opts wal.Options) (*Broker, error) {
	if dir == "" {
		return nil, fmt.Errorf("%w: empty data directory", errDurable)
	}
	meta, err := wal.Open(filepath.Join(dir, "meta"), opts)
	if err != nil {
		return nil, err
	}
	b := NewBroker()
	b.dur = &durability{dir: dir, opts: opts, meta: meta}
	if err := b.replayMeta(); err != nil {
		// Close every partition WAL replay managed to open (and its
		// policyInterval sync goroutine) before reporting the failure,
		// so a supervisor retrying OpenBroker doesn't leak handles.
		for _, t := range b.topics {
			for _, p := range t.partitions {
				if p.w != nil {
					p.w.Close()
				}
			}
		}
		meta.Close()
		return nil, err
	}
	for name, t := range b.topics {
		for i, p := range t.partitions {
			p.trim(b.floorLocked(name, i))
		}
	}
	return b, nil
}

// replayMeta rebuilds topics and committed offsets from the meta
// journal, loading each re-created partition from its own WAL.
func (b *Broker) replayMeta() error {
	return b.dur.meta.Replay(0, func(_ uint64, _ int, payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("%w: empty meta record", errDurable)
		}
		switch payload[0] {
		case metaTopic:
			topic, partitions, err := decodeMetaTopic(payload)
			if err != nil {
				return err
			}
			return b.restoreTopic(topic, partitions)
		case metaCommit:
			group, topic, partition, offset, err := decodeMetaCommit(payload)
			if err != nil {
				return err
			}
			// Commits replay in journal order; the monotonic rule makes
			// the restored value the newest committed offset.
			gt, ok := b.offsets[group]
			if !ok {
				gt = make(map[string]map[int]int64)
				b.offsets[group] = gt
			}
			tp, ok := gt[topic]
			if !ok {
				tp = make(map[int]int64)
				gt[topic] = tp
			}
			if offset > tp[partition] {
				tp[partition] = offset
			}
			return nil
		default:
			return fmt.Errorf("%w: unknown meta record %#x", errDurable, payload[0])
		}
	})
}

// restoreTopic re-creates one topic from its partition WALs.
func (b *Broker) restoreTopic(name string, partitions int) error {
	if _, ok := b.topics[name]; ok {
		// A re-journaled create (crash between journal and WAL setup on
		// an earlier life) is idempotent.
		return nil
	}
	t := &topicLog{name: name, partitions: make([]*partitionLog, partitions)}
	closeOpened := func(upTo int) {
		for _, p := range t.partitions[:upTo] {
			p.w.Close()
		}
	}
	for i := range t.partitions {
		p := newPartitionLog()
		w, err := b.dur.openPartitionWAL(name, i)
		if err != nil {
			closeOpened(i)
			return err
		}
		p.w = w
		err = w.Replay(0, func(lsn uint64, n int, payload []byte) error {
			r, pid, seq, err := decodeRunRecord(payload, n)
			if err != nil {
				return err
			}
			if int64(lsn) != p.count {
				return fmt.Errorf("%w: %s/%d: lsn %d for offset %d", errDurable, name, i, lsn, p.count)
			}
			// Rebuild the session-dedup slot from the run's own tag: runs
			// replay in append order, so the last tag seen for a producer
			// is its newest applied sequence.
			p.recordSlice(pid, seq)
			// The run's body is a view of the WAL's read buffer; putRun
			// copies it into the slab exactly as the publish did.
			p.putRun(r)
			return nil
		})
		if err != nil {
			w.Close()
			closeOpened(i)
			return err
		}
		t.partitions[i] = p
	}
	b.topics[name] = t
	return nil
}

// errReloaded stops reload's WAL replay at the partition's memory floor.
var errReloaded = errors.New("pubsub: reload reached the retained log")

// reload reads records [from, p.first()) back from the partition's WAL
// into fresh slabs ahead of the retained ones — cutting the journal runs
// at both ends, and re-coalescing them into the runs their publishes
// made — so a durable partition serves reads below its memory floor; the
// next commit past them releases them again. A WAL that does not hold
// every one of those records changes nothing, and the caller's range
// check reports the offset. Caller holds p.mu, which orders p.mu before
// the WAL's own lock as a publish does.
func (p *partitionLog) reload(from int64) error {
	first := p.first()
	gap := partitionLog{count: from}
	err := p.w.Replay(uint64(from), func(lsn uint64, n int, payload []byte) error {
		r, _, _, err := decodeRunRecord(payload, n)
		if err != nil {
			return err
		}
		r.Offset = int64(lsn)
		if r.Offset > gap.count {
			return errReloaded // the WAL starts above from
		}
		gap.putRun(r.span(gap.count, first))
		if gap.count == first {
			return errReloaded // the gap is filled
		}
		return nil
	})
	if err != nil && !errors.Is(err, errReloaded) {
		return fmt.Errorf("pubsub: reading offsets [%d, %d) back from the WAL: %w", from, first, err)
	}
	if gap.count == first {
		p.slabs = append(gap.slabs, p.slabs...)
	}
	return nil
}

// validTopicName restricts durable topic names to characters that are
// safe as directory names.
func validTopicName(name string) bool {
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return name != "" && name != "." && name != ".."
}

func (d *durability) openPartitionWAL(topic string, partition int) (*wal.Log, error) {
	if !validTopicName(topic) {
		return nil, fmt.Errorf("%w: topic %q is not a valid directory name", errDurable, topic)
	}
	return wal.Open(filepath.Join(d.dir, "topic-"+topic, fmt.Sprintf("p%04d", partition)), d.opts)
}

// journalTopic records a topic creation. Callers hold the broker mutex,
// which serializes meta appends.
func (d *durability) journalTopic(topic string, partitions int) error {
	if !validTopicName(topic) {
		return fmt.Errorf("%w: topic %q is not a valid directory name", errDurable, topic)
	}
	d.buf = appendMetaTopic(d.buf[:0], topic, partitions)
	_, err := d.meta.Append(1, d.buf)
	return err
}

// journalCommit records a consumer-group commit, allocating nothing once
// the scratch has grown to the record size. Callers hold the broker
// mutex.
func (d *durability) journalCommit(group, topic string, partition int, offset int64) error {
	d.buf = appendMetaCommit(d.buf[:0], group, topic, partition, offset)
	_, err := d.meta.Append(1, d.buf)
	return err
}

func (d *durability) close() {
	d.meta.Close()
}

// A partition journal record is one run, in a WAL frame covering its n
// offsets: kind | [u64 pid | u64 seq, runSession only] | u64 unix-nanos |
// u32 keyLen | u32 valLen | n × (key‖value). A session slice's records
// and dedup slot are one frame: a torn write loses both or neither, so a
// retry after a crash is applied whole or deduplicated whole.
const (
	runPlain   = byte(0x00)
	runSession = byte(0x01)
)

// appendRunRecord appends a run record's head — kind, session tag when
// pid is nonzero, run header — for the caller to follow with the run's
// records.
func appendRunRecord(buf []byte, pid, seq uint64, nanos int64, keyLen, valLen int) []byte {
	if pid == 0 {
		buf = append(buf, runPlain)
	} else {
		buf = binary.BigEndian.AppendUint64(append(buf, runSession), pid)
		buf = binary.BigEndian.AppendUint64(buf, seq)
	}
	return appendRunHeader(buf, nanos, keyLen, valLen)
}

// decodeRunRecord parses one partition journal record whose frame covers
// n offsets. The run's body is a view into payload, and its offset is
// left to the caller.
func decodeRunRecord(payload []byte, n int) (r Run, pid, seq uint64, err error) {
	d := codec.NewReader(payload, errDurable, "partition record")
	switch kind := d.U8(); kind {
	case runPlain:
	case runSession:
		if pid, seq = d.U64(), d.U64(); pid == 0 {
			d.Fail("session record with zero producer id")
		}
	default:
		d.Fail("unknown partition record kind %#x", kind)
	}
	r.Nanos, r.KeyLen, r.ValLen = int64(d.U64()), int(d.U32()), int(d.U32())
	// Divide rather than multiply: n × stride may overflow.
	if stride := r.KeyLen + r.ValLen; n < 1 || stride > 0 && n > d.Len()/stride {
		d.Fail("%d bytes for a run of %d records of %d+%d bytes", d.Len(), n, r.KeyLen, r.ValLen)
	}
	r.Count, r.Body = n, d.Take(n*(r.KeyLen+r.ValLen))
	return r, pid, seq, d.Done()
}

// journalSlice journals one partition's slice of a columnar batch as one
// run record — one WAL frame, one write, one policy fsync, the session
// tag once. The caller holds the partition lock.
func (p *partitionLog) journalSlice(now time.Time, cols Columns, idxs []int, pid, seq uint64) error {
	enc := appendRunRecord(p.encBuf[:0], pid, seq, now.UnixNano(), cols.KeyLen, cols.ValLen)
	for _, i := range idxs {
		enc = append(append(enc, cols.Key(i)...), cols.val(i)...)
	}
	p.encBuf = enc
	_, err := p.w.Append(len(idxs), enc)
	return err
}

func appendMetaTopic(buf []byte, topic string, partitions int) []byte {
	buf = codec.AppendBytes(append(buf, metaTopic), topic)
	return binary.BigEndian.AppendUint32(buf, uint32(partitions))
}

func appendMetaCommit(buf []byte, group, topic string, partition int, offset int64) []byte {
	buf = codec.AppendBytes(codec.AppendBytes(append(buf, metaCommit), group), topic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(partition))
	return binary.BigEndian.AppendUint64(buf, uint64(offset))
}

// decodeMetaTopic parses a metaTopic record, refusing what journalTopic
// never writes — above all a partition count CreateTopic refuses: a
// journaled count sizes the topic's allocation on every restart.
func decodeMetaTopic(payload []byte) (topic string, partitions int, err error) {
	d := codec.NewReader(payload[1:], errDurable, "meta record")
	topic, partitions = d.Str(), int(d.U32())
	if !validTopicName(topic) || partitions <= 0 || partitions > maxPartitions {
		d.Fail("topic %q with %d partitions", topic, partitions)
	}
	return topic, partitions, d.Done()
}

func decodeMetaCommit(payload []byte) (group, topic string, partition int, offset int64, err error) {
	d := codec.NewReader(payload[1:], errDurable, "meta record")
	group, topic, partition, offset = d.Str(), d.Str(), int(d.U32()), int64(d.U64())
	if offset < 0 {
		d.Fail("commit of offset %d", offset)
	}
	return group, topic, partition, offset, d.Done()
}
