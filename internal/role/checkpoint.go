package role

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/codec"
	"privapprox/internal/query"
	"privapprox/internal/stats"
	"privapprox/internal/stream"
)

// ErrCheckpoint reports a checkpoint record that is malformed or does
// not fit the deployment restoring it.
var ErrCheckpoint = errors.New("role: bad checkpoint record")

// recordMagic opens every checkpoint record; Restore refuses any other.
var recordMagic = []byte("PCR3")

// record is the one checkpoint record of a durable deployment. Its
// sections, in order, integers big-endian and strings u32-length-prefixed
// (codec.AppendBytes):
//
//	"PCR3"
//	u32 consumers; per consumer u32 topics; per topic, names ascending:
//	    name, u32 partitions, u64 next offset per partition
//	u64 the control follower's next offset (at most 2^63−1)
//	u64 From, u64 Version: the last snapshot it applied (0, 0 before any)
//	the wiring's system section, as a string (opaque here)
//	u32 results; per result: analyst, u64 serial, u64 window start and
//	    end (Unix ns), u64 responses, u64 population, u8 inverted, u32
//	    buckets; per bucket: label, u64 observed yes, f64 truthful,
//	    estimate, margin, confidence
//	the aggregator's state (Aggregator.Checkpoint), as a string
//
// Nothing follows the aggregator state, and every record decodeRecord
// accepts re-encodes to the same bytes.
type record struct {
	positions []map[string]map[int]int64
	control   int64
	applied   [2]uint64
	system    []byte
	results   []aggregator.Result
	state     []byte
}

func (r *record) append(buf []byte) []byte {
	buf = append(buf, recordMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.positions)))
	for _, pos := range r.positions {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(pos)))
		for _, topic := range slices.Sorted(maps.Keys(pos)) {
			buf = codec.AppendBytes(buf, topic)
			next := pos[topic]
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(next)))
			for p := range len(next) {
				buf = binary.BigEndian.AppendUint64(buf, uint64(next[p]))
			}
		}
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.control))
	buf = binary.BigEndian.AppendUint64(buf, r.applied[0])
	buf = binary.BigEndian.AppendUint64(buf, r.applied[1])
	buf = codec.AppendBytes(buf, r.system)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.results)))
	for i := range r.results {
		res := &r.results[i]
		buf = codec.AppendBytes(buf, res.Query.Analyst)
		buf = binary.BigEndian.AppendUint64(buf, res.Query.Serial)
		buf = binary.BigEndian.AppendUint64(buf, uint64(res.Window.Start.UnixNano()))
		buf = binary.BigEndian.AppendUint64(buf, uint64(res.Window.End.UnixNano()))
		buf = binary.BigEndian.AppendUint64(buf, uint64(res.Responses))
		buf = binary.BigEndian.AppendUint64(buf, uint64(res.Population))
		inverted := byte(0)
		if res.Inverted {
			inverted = 1
		}
		buf = append(buf, inverted)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(res.Buckets)))
		for _, b := range res.Buckets {
			buf = codec.AppendBytes(buf, b.Label)
			buf = binary.BigEndian.AppendUint64(buf, uint64(b.ObservedYes))
			for _, f := range []float64{b.Truthful, b.Estimate.Estimate, b.Estimate.Margin, b.Estimate.Confidence} {
				buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
			}
		}
	}
	return codec.AppendBytes(buf, r.state)
}

// decodeRecord parses a record; every failure wraps ErrCheckpoint. The
// system and state sections are views into data.
func decodeRecord(data []byte) (*record, error) {
	if !bytes.HasPrefix(data, recordMagic) {
		return nil, fmt.Errorf("%w: magic %q", ErrCheckpoint, data[:min(len(data), len(recordMagic))])
	}
	d := codec.NewReader(data[len(recordMagic):], ErrCheckpoint, "record")
	r := &record{}
	for range d.Count(4) {
		pos := map[string]map[int]int64{}
		prev := ""
		for t := range d.Count(8) {
			topic := d.Str()
			if t > 0 && topic <= prev {
				d.Fail("topics out of order")
			}
			prev = topic
			next := map[int]int64{}
			for p := range d.Count(8) {
				next[p] = int64(d.U64())
			}
			pos[topic] = next
		}
		r.positions = append(r.positions, pos)
	}
	if r.control = int64(d.U64()); r.control < 0 {
		d.Fail("control offset")
	}
	r.applied = [2]uint64{d.U64(), d.U64()}
	r.system = d.Bytes()
	for range d.Count(49) {
		res := aggregator.Result{Query: query.ID{Analyst: d.Str(), Serial: d.U64()}}
		start, end := int64(d.U64()), int64(d.U64())
		res.Window = stream.Window{Start: time.Unix(0, start), End: time.Unix(0, end)}
		res.Responses, res.Population = int(d.U64()), int(d.U64())
		switch d.U8() {
		case 0:
		case 1:
			res.Inverted = true
		default:
			d.Fail("inverted flag")
		}
		for range d.Count(44) {
			b := aggregator.BucketEstimate{Label: d.Str(), ObservedYes: int(d.U64()), Truthful: d.F64()}
			b.Estimate = stats.ConfidenceInterval{Estimate: d.F64(), Margin: d.F64(), Confidence: d.F64()}
			res.Buckets = append(res.Buckets, b)
		}
		r.results = append(r.results, res)
	}
	r.state = d.Bytes()
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// Checkpoint encodes the role's resumable state as one record: every
// consumer's position and the follower's, the wiring's system section,
// the fired results the wiring must be able to report again after a
// restart, and the aggregator's state. Call it between drains, never
// during one, and persist the record before committing its positions.
func (d *Drain) Checkpoint(system []byte, results []aggregator.Result) ([]byte, error) {
	r := record{control: d.follower.Position(), system: system, results: results}
	if qs := d.follower.Applier().Applied(); qs != nil {
		r.applied = [2]uint64{qs.From, qs.Version}
	}
	for _, c := range d.consumers {
		r.positions = append(r.positions, c.Positions())
	}
	state, err := d.agg.Checkpoint(nil)
	if err != nil {
		return nil, err
	}
	r.state = state
	return r.append(nil), nil
}

// Restore decodes a Checkpoint record into a fresh drain, whose follower
// has read nothing. A non-nil system is handed the wiring's system
// section first: a record that fails it changes nothing. The follower
// then replays the control topic below the record's control position as
// Sync read it, and applies it through the last snapshot the
// checkpointing follower had applied, so the aggregator holds the
// checkpoint's query set; only then are the consumers sought and the
// aggregator restored. A position past the topic's end is refused. The
// follower carries on from that position, every snapshot it read past
// the last applied one still pending. Restore returns the fired results
// to take back.
func (d *Drain) Restore(data []byte, system func(section []byte) error) ([]aggregator.Result, error) {
	r, err := decodeRecord(data)
	if err != nil {
		return nil, err
	}
	if len(r.positions) != len(d.consumers) {
		return nil, fmt.Errorf("%w: %d consumers, the deployment has %d", ErrCheckpoint, len(r.positions), len(d.consumers))
	}
	if system != nil {
		if err := system(r.system); err != nil {
			return nil, err
		}
	}
	if at := d.follower.Position(); at != 0 {
		return nil, fmt.Errorf("%w: the control follower has read to offset %d", ErrCheckpoint, at)
	}
	// The replay's refusals and flushes were the first life's to report.
	if _, err := d.follower.SyncN(r.control); d.follower.Position() != r.control {
		return nil, errors.Join(fmt.Errorf("%w: the control topic ends below offset %d", ErrCheckpoint, r.control), err)
	}
	d.queries.ap.Advance(r.applied[0], r.applied[1])
	d.queries.flushed, d.queries.err = nil, nil
	for i, c := range d.consumers {
		for topic, next := range r.positions[i] {
			for p, off := range next {
				if err := c.Seek(topic, p, off); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := d.agg.Restore(r.state); err != nil {
		return nil, err
	}
	return r.results, nil
}
