// Package lineage is the result provenance plane: it gives every fired
// window a cross-process pedigree. Client batchers stamp each published
// flush with a compact origin context (its epoch and the wall-clock
// nanosecond the flush began) that travels over a sidecar pubsub topic;
// the aggregator folds its own per-window accounting — realized
// participation, shed level, estimator CI width, privacy budget burn,
// drop counters — into a wide-event "result card" at fire time; and a
// Recorder matches the two by epoch, retains cards in a bounded ring,
// appends them as JSONL, and summarizes them as Prometheus series.
//
// The split between the two halves of a card is deliberate:
//
//   - Deterministic fields (query, window bounds, responses, realized
//     fraction, shed, CI width, epsilon, drop/dedup counts) depend only
//     on the seeded workload. DeterministicLine renders exactly these,
//     and the lineage gate requires the rendered lines to be
//     byte-identical between the in-process pipeline and the networked
//     deployment, for every Workers setting.
//   - Observed fields (fire time, fire duration, end-to-end latency
//     from the earliest batch flush feeding the window, per-stage busy
//     legs) are timing and are excluded from the gate.
package lineage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Stamp is the origin context of one published batch: which epoch the
// shares belong to and when the flush began, by the publisher's wall
// clock. The earliest flush start of a window's epochs anchors the
// window's end-to-end latency.
type Stamp struct {
	Epoch        uint64
	FlushStartNs int64 // wall clock, ns: flush began (answers handed over)
}

// stampVersion versions the wire encoding; DecodeStamp refuses a stamp
// of any other version, an older layout included.
const stampVersion = byte(2)

// StampWireSize is the encoded size of one stamp: version | u64 epoch |
// i64 flush start.
const StampWireSize = 1 + 8 + 8

// AppendStamp appends the wire encoding of s to dst.
func AppendStamp(dst []byte, s Stamp) []byte {
	dst = append(dst, stampVersion)
	dst = binary.BigEndian.AppendUint64(dst, s.Epoch)
	return binary.BigEndian.AppendUint64(dst, uint64(s.FlushStartNs))
}

// DecodeStamp decodes one stamp record.
func DecodeStamp(data []byte) (Stamp, error) {
	if len(data) != StampWireSize {
		return Stamp{}, fmt.Errorf("lineage: stamp record has %d bytes, want %d", len(data), StampWireSize)
	}
	if data[0] != stampVersion {
		return Stamp{}, fmt.Errorf("lineage: stamp version %d, want %d", data[0], stampVersion)
	}
	return Stamp{
		Epoch:        binary.BigEndian.Uint64(data[1:]),
		FlushStartNs: int64(binary.BigEndian.Uint64(data[9:])),
	}, nil
}

// Card is the wide event for one fired window. One card is emitted per
// (query, window) fire, off the hot path, and never mutated afterwards.
//
// Float fields can legitimately be non-finite — an unbounded CI width
// is +Inf, and so is the zero-knowledge epsilon at s = 1 — so they
// serialize through JSONFloat, which encodes non-finite values as the
// strings "+Inf", "-Inf", "NaN" instead of failing the whole card.
type Card struct {
	// Deterministic under a fixed seed (the lineage gate's contract).
	Query       string    `json:"query"`
	WindowStart int64     `json:"window_start_ns"` // unix ns, inclusive
	WindowEnd   int64     `json:"window_end_ns"`   // unix ns, exclusive
	EpochFirst  uint64    `json:"epoch_first"`     // first epoch mapping into the window
	EpochLast   uint64    `json:"epoch_last"`      // last epoch mapping into the window
	Responses   int       `json:"responses"`       // decoded answers aggregated
	Population  int       `json:"population"`      // effective SRS population (U × epochs)
	Fraction    JSONFloat `json:"fraction"`        // configured sampling fraction s
	Realized    JSONFloat `json:"realized"`        // Responses / Population
	Shed        JSONFloat `json:"shed"`            // shed threshold at fire (1 = unshed)
	CIWidth     JSONFloat `json:"ci_width"`        // mean relative CI width; +Inf = unbounded
	EpsilonZK   JSONFloat `json:"epsilon_zk"`      // privacy budget burned by the window's params
	Late        int64     `json:"late"`            // late answers attributed to this window; the aggregator attributes none (always 0)
	Duplicates  int64     `json:"duplicates"`      // aggregator duplicate shares at fire time
	Malformed   int64     `json:"malformed"`       // aggregator malformed messages at fire time

	// Observed at fire time (timing; excluded from DeterministicLine).
	FiredAtNs int64            `json:"fired_at_ns"`        // wall clock of the fire
	FireDurNs int64            `json:"fire_dur_ns"`        // close + estimate duration
	E2ENs     int64            `json:"e2e_ns"`             // fire − earliest stamp flush; -1 = no stamps
	Stamps    int              `json:"stamps"`             // stamp batches matched to the window's epochs
	StageNs   map[string]int64 `json:"stage_ns,omitempty"` // cumulative per-stage busy legs
}

// JSONFloat is a float64 whose JSON form survives non-finite values:
// finite values encode as numbers, ±Inf and NaN as the strings detFloat
// renders. encoding/json rejects non-finite float64s outright, and a
// result card must never be unloggable because an estimator leg was
// unbounded.
type JSONFloat float64

func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = JSONFloat(math.NaN())
		case "+Inf":
			*f = JSONFloat(math.Inf(1))
		case "-Inf":
			*f = JSONFloat(math.Inf(-1))
		default:
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return err
			}
			*f = JSONFloat(v)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// DeterministicLine renders the card's seed-determined fields as one
// canonical line. The lineage gate compares sorted multisets of these
// lines across deployment shapes, so the format must not include
// anything timing- or scheduling-dependent.
func (c Card) DeterministicLine() string {
	var b strings.Builder
	b.WriteString("query=")
	b.WriteString(c.Query)
	fmt.Fprintf(&b, " window=[%d,%d) epochs=[%d,%d] responses=%d population=%d",
		c.WindowStart, c.WindowEnd, c.EpochFirst, c.EpochLast, c.Responses, c.Population)
	b.WriteString(" fraction=")
	b.WriteString(detFloat(float64(c.Fraction)))
	b.WriteString(" realized=")
	b.WriteString(detFloat(float64(c.Realized)))
	b.WriteString(" shed=")
	b.WriteString(detFloat(float64(c.Shed)))
	b.WriteString(" ci_width=")
	b.WriteString(detFloat(float64(c.CIWidth)))
	b.WriteString(" epsilon_zk=")
	b.WriteString(detFloat(float64(c.EpsilonZK)))
	fmt.Fprintf(&b, " late=%d duplicates=%d malformed=%d", c.Late, c.Duplicates, c.Malformed)
	return b.String()
}

// detFloat renders a float the shortest way that round-trips — a
// bit-exact value renders identically everywhere, so equal estimates
// produce equal lines.
func detFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// EpochRange maps a window to the epochs whose event times fall inside
// it: event time of epoch e is origin + e×freq. ok is false when the
// window lies entirely before origin or freq is not positive.
func EpochRange(originNs, freqNs, startNs, endNs int64) (first, last uint64, ok bool) {
	if freqNs <= 0 || endNs <= startNs || endNs <= originNs {
		return 0, 0, false
	}
	var lo int64
	if startNs > originNs {
		// Ceil division for the first epoch at or after the window start.
		lo = (startNs - originNs + freqNs - 1) / freqNs
	}
	hi := (endNs - 1 - originNs) / freqNs
	if hi < lo {
		return 0, 0, false
	}
	return uint64(lo), uint64(hi), true
}
