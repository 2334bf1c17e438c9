package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/codec"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/role"
	"privapprox/internal/rr"
	"privapprox/internal/wal"
	"privapprox/internal/workload"
)

// shedParams leave both noise sources on so shedding interacts with the
// full pipeline (sampling, randomized response, estimator rescaling).
var shedParams = budget.Params{S: 0.8, RR: rr.Params{P: 0.9, Q: 0.6}}

// shedRun is everything observable from a run with a shed schedule.
type shedRun struct {
	Results []aggregator.Result
	Shedded int64
	Decoded int64
}

// runShedSystem drives a registered query for `epochs` epochs under the
// given worker count, actuating a shed schedule through the control
// plane: threshold 0.4 from epoch 3, back to 1 from epoch 7 — the same
// path an SLO controller adjustment takes.
func runShedSystem(t *testing.T, workers, epochs int) shedRun {
	t.Helper()
	q, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clients: 60,
		Proxies: 2,
		Seed:    4242,
		Params:  &shedParams,
		Workers: workers,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			return workload.PopulateTaxi(db, rng, 3, time.Unix(1000, 0), time.Minute)
		},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if err := sys.Register(q); err != nil {
		t.Fatal(err)
	}
	var run shedRun
	for e := 0; e < epochs; e++ {
		switch e {
		case 3:
			if err := sys.Registry().SetShed(q.QID, 0.4); err != nil {
				t.Fatal(err)
			}
		case 7:
			if err := sys.Registry().SetShed(q.QID, 1); err != nil {
				t.Fatal(err)
			}
		}
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		run.Results = append(run.Results, res...)
	}
	final, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	run.Results = append(run.Results, final...)
	windowsConserved(t, sys, run.Results)
	for _, c := range sys.Clients() {
		run.Shedded += c.Stats().Shedded
	}
	run.Decoded = sys.Aggregator().Stats().Decoded
	return run
}

// TestShedDeterministicAcrossWorkersAndShards extends the determinism
// contract to active shedding: with a shed schedule riding the control
// plane mid-run, results and shed counts must stay byte-identical for
// every worker count under a fixed Seed.
func TestShedDeterministicAcrossWorkersAndShards(t *testing.T) {
	const epochs = 10
	want := runShedSystem(t, 1, epochs)
	if want.Shedded == 0 {
		t.Fatal("shed schedule suppressed no answers; test is vacuous")
	}
	if want.Decoded == 0 || len(want.Results) == 0 {
		t.Fatalf("degenerate sequential run: %+v", want)
	}
	for _, workers := range []int{2, 8} {
		got := runShedSystem(t, workers, epochs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverges from sequential under shedding\n got: %+v\nwant: %+v",
				workers, got, want)
		}
	}
}

// overloadConfig is the shared fleet for the closed-loop tests: small
// population, two proxies, sliding windows so lag observations arrive
// every couple of epochs.
func overloadConfig(t *testing.T, seed int64) (Config, *query.Query) {
	t.Helper()
	q, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clients: 30,
		Proxies: 2,
		Seed:    seed,
		Params:  &shedParams,
		Workers: 1,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			return workload.PopulateTaxi(db, rng, 3, time.Unix(1000, 0), time.Minute)
		},
	}
	return cfg, q
}

func TestEnableSLOValidation(t *testing.T) {
	mcfg, q := overloadConfig(t, 1)
	msys, err := New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer msys.Close()
	if err := msys.Register(q); err != nil {
		t.Fatal(err)
	}
	if err := msys.EnableSLO(0, 0.1, 8); err == nil {
		t.Error("EnableSLO accepted zero target")
	}
	if err := msys.EnableSLO(4, 0, 8); err == nil {
		t.Error("EnableSLO accepted zero shed floor")
	}
	if err := msys.EnableSLO(4, 0.1, 0); err == nil {
		t.Error("EnableSLO accepted zero window")
	}
	if err := msys.EnableSLO(4, 0.1, 4); err != nil {
		t.Fatal(err)
	}
	if got := msys.SLOShed(q.QID); got != 1 {
		t.Errorf("initial SLOShed = %v, want 1", got)
	}
}

// TestSLOClosedLoopShedsAndRecovers drives the full loop: offered load
// at ~5× the drain budget makes window-fire lag grow, the controller
// tightens the shed threshold (observable on clients, in the registry,
// and stamped on results), and once the overload ends the threshold
// relaxes back out.
func TestSLOClosedLoopShedsAndRecovers(t *testing.T) {
	cfg, q := overloadConfig(t, 7)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if err := sys.Register(q); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableSLO(4, 0.1, 3); err != nil {
		t.Fatal(err)
	}

	// Surge: 5 answer epochs per tick against a drain budget covering
	// under one epoch's worth of shares, for 12 ticks. Without control
	// the lag grows ~2 slides per tick; with it, shedding lets the drain
	// catch back up mid-surge.
	var surgeResults []aggregator.Result
	var peakPending int64
	for tick := 0; tick < 12; tick++ {
		for k := 0; k < 5; k++ {
			if _, err := sys.AnswerEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		res, drained, err := sys.DrainUpTo(40)
		if err != nil {
			t.Fatal(err)
		}
		if drained > 40 {
			t.Fatalf("DrainUpTo(40) drained %d", drained)
		}
		surgeResults = append(surgeResults, res...)
		pending, err := sys.PendingShares()
		if err != nil {
			t.Fatal(err)
		}
		if pending > peakPending {
			peakPending = pending
		}
	}
	if peakPending == 0 {
		t.Fatal("surge never built a backlog; overload never happened")
	}
	surgeShed := sys.SLOShed(q.QID)
	if surgeShed >= 1 {
		t.Fatalf("controller did not tighten under overload: shed = %v", surgeShed)
	}
	// The threshold reached the clients through the control plane…
	var shedded int64
	for _, c := range sys.Clients() {
		shedded += c.Stats().Shedded
	}
	if shedded == 0 {
		t.Error("no client shed an answer despite a tightened threshold")
	}
	// …and the registry's snapshot carries it.
	entry, ok := sys.Registry().Entry(q.QID)
	if !ok {
		t.Fatal("query vanished from registry")
	}
	if entry.Shed != surgeShed {
		t.Errorf("registry shed = %v, controller shed = %v", entry.Shed, surgeShed)
	}
	// Late results are stamped with a sub-1 threshold.
	sawStamp := false
	for _, r := range surgeResults {
		if r.Shed < 1 {
			sawStamp = true
		}
	}
	if !sawStamp {
		t.Error("no surge result stamped with shed < 1")
	}

	// Recovery: drain the backlog dry, then run at sustainable load; the
	// relax path walks the threshold back up.
	for {
		_, drained, err := sys.DrainUpTo(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if drained == 0 {
			break
		}
	}
	for e := 0; e < 100; e++ {
		if _, _, err := sys.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	recovered := sys.SLOShed(q.QID)
	if recovered <= surgeShed {
		t.Errorf("threshold did not recover: surge %v, after recovery %v", surgeShed, recovered)
	}
}

// surgeSystem builds an overload system over dataDir; a first life also
// registers the query and enables SLO control, which a restored one
// takes from its checkpoint.
func surgeSystem(t *testing.T, dataDir string, first bool) (*System, *query.Query) {
	t.Helper()
	cfg, q := overloadConfig(t, 99)
	cfg.DataDir = dataDir
	cfg.WALFsync = wal.PolicyEveryBatch
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !first {
		return sys, q
	}
	if err := sys.Register(q); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableSLO(4, 0.1, 3); err != nil {
		t.Fatal(err)
	}
	return sys, q
}

// surgeTick answers five epochs and drains at most 40 records: more
// than the drain keeps up with, so the SLO controller tightens.
func surgeTick(t *testing.T, sys *System) []aggregator.Result {
	t.Helper()
	for k := 0; k < 5; k++ {
		if _, err := sys.AnswerEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := sys.DrainUpTo(40)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSLOCheckpointResumeMidShed is the crash gate for overload
// control: a system checkpointed mid-surge — threshold tightened,
// backlog queued — must resume shedding at the checkpointed level and
// produce results identical to an uninterrupted run. Un-shedding on
// recovery would re-overload the fleet the moment it came back.
func TestSLOCheckpointResumeMidShed(t *testing.T) {
	const ticks, crashAfter = 12, 6
	dir := t.TempDir()
	// Uninterrupted reference.
	ref, qID := surgeSystem(t, "", true)
	defer ref.Close()
	var want []aggregator.Result
	for i := 0; i < ticks; i++ {
		want = append(want, surgeTick(t, ref)...)
	}

	// First life: crash mid-surge.
	sysA, _ := surgeSystem(t, dir, true)
	var got []aggregator.Result
	for i := 0; i < crashAfter; i++ {
		got = append(got, surgeTick(t, sysA)...)
	}
	crashShed := sysA.SLOShed(qID.QID)
	if crashShed >= 1 {
		t.Fatalf("surge did not tighten before the crash: shed = %v", crashShed)
	}
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sysA.Close()

	// Second life over the same data directory.
	sysB, _ := surgeSystem(t, dir, false)
	defer sysB.Close()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if got, want := sysB.SLOShed(qID.QID), crashShed; got != want {
		t.Fatalf("restored shed = %v, want %v", got, want)
	}
	// The threshold is in force, not just remembered: the control cut the
	// restore replayed carries it into the registry, and so does every
	// window the aggregator fires after the resume.
	if entry, ok := sysB.Registry().Entry(qID.QID); !ok || entry.Shed != crashShed {
		t.Fatalf("restored registry shed = %+v, want %v", entry, crashShed)
	}
	for i := crashAfter; i < ticks; i++ {
		got = append(got, surgeTick(t, sysB)...)
	}
	if !resultsEqual(got, want) {
		t.Fatalf("mid-shed resume diverged:\ngot  %+v\nwant %+v", got, want)
	}
	for i := range got {
		if got[i].Shed != want[i].Shed {
			t.Fatalf("window %v fired with shed %v, want %v", got[i].Window.Start, got[i].Shed, want[i].Shed)
		}
	}
	if a, b := sysB.SLOShed(qID.QID), ref.SLOShed(qID.QID); a != b {
		t.Errorf("post-resume shed %v diverged from reference %v", a, b)
	}
}

// TestSLOCheckpointResumesLaterActuation: the controller moves the
// threshold again after the checkpoint, before the crash. Each actuation
// is stamped with the epoch it applies from, so the restored clients
// shed from there and the aggregator stamps each window with the
// threshold in force at its closing epoch: the resumed run equals an
// uninterrupted one, Shed included, and the share ledger balances over
// both lives' answers.
func TestSLOCheckpointResumesLaterActuation(t *testing.T) {
	const ticks, ckptAfter, crashAfter = 12, 4, 6
	dir := t.TempDir()
	flush := func(sys *System, results []aggregator.Result) []aggregator.Result {
		final, err := sys.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return append(results, final...)
	}
	ref, q := surgeSystem(t, "", true)
	defer ref.Close()
	var want []aggregator.Result
	for i := 0; i < ticks; i++ {
		want = append(want, surgeTick(t, ref)...)
	}
	want = flush(ref, want)
	windowsConserved(t, ref, want)

	sysA, _ := surgeSystem(t, dir, true)
	var got []aggregator.Result
	for i := 0; i < ckptAfter; i++ {
		got = append(got, surgeTick(t, sysA)...)
	}
	cutShed := sysA.SLOShed(q.QID)
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := ckptAfter; i < crashAfter; i++ {
		surgeTick(t, sysA)
	}
	if shed := sysA.SLOShed(q.QID); cutShed >= 1 || shed == cutShed {
		t.Fatalf("want an actuation mid-shed after the checkpoint: shed %v at the cut, %v at the crash", cutShed, shed)
	}
	answeredA, droppedA, _, err := sysA.ledger()
	if err != nil {
		t.Fatal(err)
	}
	sysA.Close()

	sysB, _ := surgeSystem(t, dir, false)
	defer sysB.Close()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	for i := ckptAfter; i < ticks; i++ {
		got = append(got, surgeTick(t, sysB)...)
	}
	got = flush(sysB, got)
	if !resultsEqual(got, want) {
		t.Fatalf("resume across a later actuation diverged:\ngot  %+v\nwant %+v", got, want)
	}
	answeredB, droppedB, _, err := sysB.ledger()
	if err != nil {
		t.Fatal(err)
	}
	for i := range droppedB {
		droppedB[i] += droppedA[i]
	}
	if err := role.Balance(answeredA+answeredB, droppedB, role.Fetched(sysB.drainer.Consumers()), sysB.agg.Stats(), int64(sysB.agg.PendingJoins())); err != nil {
		t.Errorf("share ledger over both lives: %v", err)
	}
}

// TestSLOStateRefusesRingBeyondRecord: a checkpointed SLO window sizes
// each restored controller's ring, so a window the rest of the record
// cannot hold is refused before any controller is built.
func TestSLOStateRefusesRingBeyondRecord(t *testing.T) {
	sec := binary.BigEndian.AppendUint64([]byte{1}, math.Float64bits(2))
	sec = binary.BigEndian.AppendUint64(sec, math.Float64bits(0.1))
	sec = binary.BigEndian.AppendUint32(sec, math.MaxUint32)
	sec = binary.BigEndian.AppendUint32(sec, 1)
	sec = appendID(sec, query.ID{Analyst: "a", Serial: 1})
	sec = append(sec, make([]byte, 64)...)
	d := codec.NewReader(sec, errConfig, "record")
	if st, err := readSLOState(&d); !errors.Is(err, errConfig) {
		t.Fatalf("readSLOState = %v, %v; want ErrConfig", st, err)
	}
}

// TestLaggingDrainStampsTheClosingEpoch: a drain that lags the answers
// fires window [0 s, 4 s) — closing epoch 8 — only after the shed
// threshold moved at epoch 9. The window is stamped with the threshold
// in force at its closing epoch, not at the drain that fired it.
func TestLaggingDrainStampsTheClosingEpoch(t *testing.T) {
	cfg := taxiSystemConfig(t, 6, recoveryParams)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for e := 0; e < 10; e++ {
		if e == 9 {
			if err := sys.Registry().SetShed(cfg.Query.QID, 0.5); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.sync(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.AnswerEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	fired, _, err := sys.DrainUpTo(math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0].Window.End.Sub(fired[0].Window.Start) != 4*time.Second || fired[0].Shed != 1 {
		t.Fatalf("lagging drain fired %+v, want window [0 s, 4 s) stamped with shed 1", fired)
	}
}
