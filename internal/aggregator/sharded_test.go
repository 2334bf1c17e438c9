package aggregator

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

// slidingTestQuery fires windows while epochs are still streaming in:
// 1s epochs over 4s windows sliding every 2s.
func slidingTestQuery(t *testing.T, nbuckets int) *query.Query {
	t.Helper()
	buckets, err := query.UniformRanges(0, float64(nbuckets), nbuckets, false)
	if err != nil {
		t.Fatal(err)
	}
	return &query.Query{
		QID:       query.ID{Analyst: "a", Serial: 1},
		SQL:       "SELECT v FROM t",
		Buckets:   buckets,
		Frequency: time.Second,
		Window:    4 * time.Second,
		Slide:     2 * time.Second,
	}
}

// submission is one share en route to the aggregator.
type submission struct {
	share xorcrypt.Share
	src   int
}

// buildEpochTraffic pre-splits one epoch's worth of traffic: good
// answers, wrong-query and wrong-width malformed messages, undecryptable
// share pairs, and replayed duplicates. Shares are built sequentially
// (the splitter is not concurrency-safe) and submitted later in any
// order or interleaving.
func buildEpochTraffic(t *testing.T, q *query.Query, epoch uint64, good, malformed, duplicates int) []submission {
	t.Helper()
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nbuckets := len(q.Buckets)
	var subs []submission
	split := func(qid uint64, width, bucket int) []xorcrypt.Share {
		vec, err := answer.OneHot(width, bucket%width)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := (&answer.Message{QueryID: qid, Epoch: epoch, Answer: vec}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		shares, err := splitter.Split(raw)
		if err != nil {
			t.Fatal(err)
		}
		return shares
	}
	for i := 0; i < good; i++ {
		shares := split(q.QID.Uint64(), nbuckets, int(epoch)*31+i)
		for src, sh := range shares {
			subs = append(subs, submission{sh, src})
		}
		if i < duplicates {
			// Replay one share of this message verbatim.
			subs = append(subs, submission{shares[0], 0})
		}
	}
	for i := 0; i < malformed; i++ {
		switch i % 3 {
		case 0: // wrong query ID: joins and decodes, rejected by the filter
			shares := split(q.QID.Uint64()+7, nbuckets, i)
			for src, sh := range shares {
				subs = append(subs, submission{sh, src})
			}
		case 1: // wrong bucket width: decodes, size filter rejects
			shares := split(q.QID.Uint64(), nbuckets+3, i)
			for src, sh := range shares {
				subs = append(subs, submission{sh, src})
			}
		default: // length-mismatched share pair: XOR join itself fails
			shares := split(q.QID.Uint64(), nbuckets, i)
			shares[1].Payload = shares[1].Payload[:len(shares[1].Payload)-1]
			for src, sh := range shares {
				subs = append(subs, submission{sh, src})
			}
		}
	}
	return subs
}

func runTraffic(t *testing.T, a *Aggregator, epochs [][]submission, goroutines int, rng *rand.Rand) []Result {
	t.Helper()
	var (
		mu    sync.Mutex
		fired []Result
	)
	for _, subs := range epochs {
		order := rng.Perm(len(subs))
		if goroutines <= 1 {
			for _, idx := range order {
				sub := subs[idx]
				res, err := submitOne(a, sub.share, sub.src)
				if err != nil {
					t.Fatal(err)
				}
				fired = append(fired, res...)
			}
			continue
		}
		// All goroutines pound the aggregator with this epoch's shares at
		// once; earlier windows fire mid-stream when the watermark jumps.
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(order); i += goroutines {
					sub := subs[order[i]]
					res, err := submitOne(a, sub.share, sub.src)
					if err != nil {
						t.Error(err)
						return
					}
					if len(res) > 0 {
						mu.Lock()
						fired = append(fired, res...)
						mu.Unlock()
					}
				}
			}(g)
		}
		wg.Wait()
	}
	final, err := a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	fired = append(fired, final...)
	sort.SliceStable(fired, func(i, j int) bool {
		return fired[i].Window.Start.Before(fired[j].Window.Start)
	})
	return fired
}

// TestShardedAggregatorMatchesSequential is the race-hardening
// equivalence test: one, four and sixteen goroutines submit interleaved
// shares, duplicates, and malformed records into one aggregator's join
// lock while windows fire, and each run must produce byte-identical
// results and counters to an aggregator fed the same traffic
// sequentially.
func TestShardedAggregatorMatchesSequential(t *testing.T) {
	const (
		nbuckets   = 5
		nepochs    = 10
		good       = 40
		malformed  = 6
		duplicates = 5
	)
	q := slidingTestQuery(t, nbuckets)
	epochs := make([][]submission, nepochs)
	for e := range epochs {
		epochs[e] = buildEpochTraffic(t, q, uint64(e), good, malformed, duplicates)
	}
	cfg := Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: good,
		Proxies:    2,
		Origin:     testOrigin,
		Seed:       17,
	}

	seq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantResults := runTraffic(t, seq, epochs, 1, rand.New(rand.NewSource(23)))

	for _, submitters := range []int{1, 4, 16} {
		par, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := runTraffic(t, par, epochs, submitters, rand.New(rand.NewSource(int64(submitters))))

		gotSt, wantSt := par.Stats(), seq.Stats()
		if gotSt.Decoded != wantSt.Decoded || gotSt.Decoded != int64(nepochs*good) {
			t.Errorf("submitters=%d: decoded = %d, want %d", submitters, gotSt.Decoded, wantSt.Decoded)
		}
		if gotSt.Malformed != wantSt.Malformed {
			t.Errorf("submitters=%d: malformed = %d, want %d", submitters, gotSt.Malformed, wantSt.Malformed)
		}
		if gotSt.Duplicates != wantSt.Duplicates || gotSt.Duplicates != int64(nepochs*duplicates) {
			t.Errorf("submitters=%d: duplicates = %d, want %d", submitters, gotSt.Duplicates, wantSt.Duplicates)
		}
		if gotSt.Late != 0 {
			t.Errorf("submitters=%d: late = %d, want 0", submitters, gotSt.Late)
		}
		if !reflect.DeepEqual(got, wantResults) {
			t.Errorf("submitters=%d: results diverge from sequential run\n got: %+v\nwant: %+v", submitters, got, wantResults)
		}
	}
}

// TestShardedPendingJoins checks the pending count of partial joins and
// that rotation sweeps them.
func TestShardedPendingJoins(t *testing.T) {
	q := slidingTestQuery(t, 4)
	cfg := Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: 10,
		Proxies:    2,
		Origin:     testOrigin,
		Seed:       5,
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Submit only the first share of 10 messages: all stay pending.
	for i := 0; i < 10; i++ {
		vec, _ := answer.OneHot(4, i%4)
		raw, _ := (&answer.Message{QueryID: q.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
		shares, err := splitter.Split(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := submitOne(a, shares[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.PendingJoins(); got != 10 {
		t.Errorf("pending = %d, want 10", got)
	}
	// The first advance starts the joiner's clock; two more, each more
	// than a retain horizon on, drop all partial joins.
	for _, ahead := range []time.Duration{0, time.Hour, 2 * time.Hour} {
		if _, err := a.AdvanceTo(testOrigin.Add(ahead)); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.PendingJoins(); got != 0 {
		t.Errorf("pending after sweep = %d, want 0", got)
	}
	if got := a.Stats().Swept; got != 10 {
		t.Errorf("swept = %d, want 10", got)
	}
}
