package pubsub

import (
	"fmt"
	"time"
)

// Transport is the broker surface the rest of the system builds on.
// Both the in-process *Broker and the TCP *Client implement it, so
// proxies and the aggregator's consumers run unchanged over either
// backend — the in-process pipeline and the networked Fig. 3 deployment
// are the same code with a different Transport plugged in.
type Transport interface {
	// Partitions returns a topic's partition count.
	Partitions(topic string) (int, error)
	// PublishColumns appends a fixed-stride batch in one call, fully
	// applied or refused whole: the only write, so one record is a batch
	// of one. A record's partition is the FNV-1a hash of its key. A
	// nonzero pid tags the batch with a producer session: seq is that
	// producer's per-topic batch sequence, and a partition that already
	// applied seq or a later one skips its slice, so a retry after
	// ErrAmbiguous has exactly-once effect. pid 0 publishes without dedup
	// and must carry seq 0.
	PublishColumns(topic string, cols Columns, pid, seq uint64) error
	// FetchWait reads up to max records from a partition starting at
	// offset and appends them to runs. wait <= 0 returns immediately with
	// whatever is available; wait > 0 blocks until at least one record
	// arrives or the wait elapses (appending nothing on timeout). The
	// runs' bodies are the caller's own, never the log's: a private copy
	// appended to mem, which comes back grown by it — the in-process
	// broker copies the records there, and the TCP client reads the reply
	// frame there. Nothing writes mem once the call has returned.
	FetchWait(topic string, partition int, offset int64, max int, wait time.Duration, runs []Run, mem []byte) ([]Run, []byte, error)
	// EndOffset returns the next offset to be written in a partition.
	EndOffset(topic string, partition int) (int64, error)
	// CommitOffset durably records a consumer group's next-read offset.
	CommitOffset(group, topic string, partition int, offset int64) error
	// CommittedOffset returns a group's committed offset, 0 when none.
	CommittedOffset(group, topic string, partition int) (int64, error)
}

// Run is Count consecutive records of one partition with one timestamp,
// key length and value length: Body holds their key‖value bytes at the
// fixed stride KeyLen+ValLen. It is the layout a partition's slabs, its
// journal and the fetch wire share (DESIGN.md §2, §14), and the form in
// which a fetch hands records out.
type Run struct {
	Offset         int64 // offset of the first record
	Count          int
	Nanos          int64 // the records' timestamp, unix-nanos
	KeyLen, ValLen int
	Body           []byte
}

// Columns is a publish batch: Count fixed-stride records laid out as
// two contiguous lanes, record i's key at Keys[i*KeyLen:(i+1)*KeyLen]
// and its value at Vals[i*ValLen:...]. It is the shape opPublishColumns
// carries in one frame — one header plus two lane copies, never
// re-sliced per record — and the shape xorcrypt's batch split produces.
// The fixed stride is a same-query constraint by construction: batches
// mixing record sizes cannot be expressed and are rejected before they
// reach the wire.
//
// A batch may be keyless (KeyLen 0) or carry empty values, not both.
//
// The lanes are borrowed, not taken over: a publisher fully consumes
// (copies or encodes) both lanes before PublishColumns returns, so the
// caller may reuse them immediately (DESIGN.md §6, §10).
type Columns struct {
	Count  int
	KeyLen int
	ValLen int
	Keys   []byte
	Vals   []byte
}

// validate checks the lane geometry.
func (c Columns) validate() error {
	if c.Count < 0 {
		return fmt.Errorf("%w: %d records", errWire, c.Count)
	}
	if c.Count == 0 {
		return nil
	}
	if c.KeyLen < 0 || c.ValLen < 0 || c.KeyLen+c.ValLen == 0 {
		return fmt.Errorf("%w: key stride %d, value stride %d", errWire, c.KeyLen, c.ValLen)
	}
	if len(c.Keys) != c.Count*c.KeyLen {
		return fmt.Errorf("%w: %d-byte key lane for %d×%d", errWire, len(c.Keys), c.Count, c.KeyLen)
	}
	if len(c.Vals) != c.Count*c.ValLen {
		return fmt.Errorf("%w: %d-byte value lane for %d×%d", errWire, len(c.Vals), c.Count, c.ValLen)
	}
	return nil
}

// Key returns record i's key as a view into the key lane.
func (c Columns) Key(i int) []byte { return c.Keys[i*c.KeyLen : (i+1)*c.KeyLen : (i+1)*c.KeyLen] }

// val returns record i's value as a view into the value lane.
func (c Columns) val(i int) []byte { return c.Vals[i*c.ValLen : (i+1)*c.ValLen : (i+1)*c.ValLen] }

// Val returns record i's value as a view into the run's body.
func (r Run) Val(i int) []byte {
	end := (i + 1) * (r.KeyLen + r.ValLen)
	return r.Body[end-r.ValLen : end : end]
}

var (
	_ Transport = (*Broker)(nil)
	_ Transport = (*Client)(nil)
)
