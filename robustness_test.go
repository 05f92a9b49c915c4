package drrgossip

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"drrgossip/internal/telemetry"
)

// The degradation contract's acceptance bar: a query limited by
// Config.Deadline against a faulted run must come back promptly with a
// partial Answer whose Quality says what happened — not hang, and not
// fail with an error.
func TestDeadlineReturnsPartialAnswer(t *testing.T) {
	const n = 128
	values := uniformValues(n, 11)
	cfg := Config{
		N:        n,
		Seed:     5,
		Faults:   mustPlan(t, "part:2@1r"),
		Deadline: time.Nanosecond, // expires before the first watchdog poll
	}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var ans *Answer
	go func() {
		defer close(done)
		ans, err = nw.Run(MaxOf(values))
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadline-limited query did not return")
	}
	if err != nil {
		t.Fatalf("deadline abort is degradation, not an error; got %v", err)
	}
	if ans == nil {
		t.Fatal("no answer")
	}
	q := ans.Quality
	if !q.Partial || q.Reason != ReasonDeadline {
		t.Fatalf("Quality = %+v, want Partial with Reason %q", q, ReasonDeadline)
	}
	if ans.Converged || q.Converged {
		t.Fatalf("aborted answer reports Converged: %+v", q)
	}
	if ans.Cost.Rounds == 0 || ans.Cost.Rounds%abortStrideSync != 0 {
		t.Fatalf("abort should land on a watchdog stride; Cost.Rounds = %d", ans.Cost.Rounds)
	}
	if !math.IsNaN(ans.Value) {
		t.Fatalf("mid-protocol abort has no consensus value; got %v", ans.Value)
	}
	if q.AliveFraction <= 0 || q.AliveFraction > 1 {
		t.Fatalf("AliveFraction = %v", q.AliveFraction)
	}
}

// RoundBudget aborts are deterministic: the same config yields the same
// partial answer (cost, membership, quality) on every run.
func TestRoundBudgetDeterministicPartial(t *testing.T) {
	const n = 96
	values := uniformValues(n, 23)
	cfg := Config{N: n, Seed: 9, Faults: mustPlan(t, "crash:0.2@2r"), RoundBudget: 5}
	run := func() *Answer {
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := nw.Run(SumOf(values))
		if err != nil {
			t.Fatalf("budget abort is degradation, not an error; got %v", err)
		}
		return ans
	}
	a, b := run(), run()
	if a.Quality != b.Quality {
		t.Fatalf("Quality drifted across identical runs:\n %+v\n %+v", a.Quality, b.Quality)
	}
	if a.Cost != b.Cost || a.Alive != b.Alive {
		t.Fatalf("partial accounting drifted: %+v/%d vs %+v/%d", a.Cost, a.Alive, b.Cost, b.Alive)
	}
	if !a.Quality.Partial || a.Quality.Reason != ReasonRoundBudget {
		t.Fatalf("Quality = %+v, want Partial with Reason %q", a.Quality, ReasonRoundBudget)
	}
	// Budget 5, stride 16: the watchdog trips at the first poll.
	if a.Cost.Rounds != abortStrideSync {
		t.Fatalf("Cost.Rounds = %d, want %d", a.Cost.Rounds, abortStrideSync)
	}
}

// A parallel RunAll resolves its horizon pre-runs before fanning out,
// under a watchdog of their own, so aborts reach them exactly as they
// reach the pre-runs of sequential execution: answers, bill, error and
// SessionStats at Parallelism 2 equal those at Parallelism 1. The budget
// row aborts every pre-run (zero-cost partial answers); the cancelled
// row starts none; the composite row aborts an HMS Quantile's first
// faulted Count after its pre-run, so the Max-shape binding the batch
// pre-resolved for the Quantile's Min and Max is never used, and must
// not be counted either.
func TestRunAllParallelAbortParity(t *testing.T) {
	const n = 256
	values := uniformValues(n, 5)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	crash := mustPlan(t, "crash:0.05@0.5")
	for _, tc := range []struct {
		name    string
		cfg     Config
		ctx     context.Context
		queries []Query
	}{
		{"round-budget", Config{N: n, Seed: 3, Faults: crash, RoundBudget: 50},
			context.Background(), []Query{SumOf(values), MaxOf(values)}},
		{"cancelled", Config{N: n, Seed: 3, Faults: crash},
			cancelled, []Query{SumOf(values), MaxOf(values)}},
		{"composite-budget", Config{N: n, Seed: 3, Faults: mustPlan(t, "crash:0.3@0.5;rejoin@0.7"),
			RoundBudget: 208, QuantileMethod: QuantileHMS},
			context.Background(), []Query{QuantileOf(values, 0.5, 0), SumOf(values)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				digests []uint64
				bill    Cost
				err     string
				stats   SessionStats
			}
			run := func(workers int) outcome {
				nw, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				answers, bill, err := nw.RunAllContext(tc.ctx, tc.queries, BatchOptions{Parallelism: workers})
				o := outcome{bill: bill, stats: nw.Stats()}
				if err != nil {
					o.err = err.Error()
				}
				for _, a := range answers {
					o.digests = append(o.digests, outcomeDigest(a, nil, SessionStats{}))
				}
				return o
			}
			seq, par := run(1), run(2)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("parallel batch diverged from sequential:\n seq %+v\n par %+v", seq, par)
			}
		})
	}
}

// Composite queries (Quantile, Histogram) aborted mid-flight keep the
// cost of the completed steps and report the abort through Quality.
func TestCompositeAbortKeepsPartialCost(t *testing.T) {
	const n = 64
	values := uniformValues(n, 31)
	cfg := Config{N: n, Seed: 3, RoundBudget: 5}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := nw.Run(HistogramOf(values, []float64{250, 500, 750}))
	if err != nil {
		t.Fatalf("budget abort is degradation, not an error; got %v", err)
	}
	if !ans.Quality.Partial || ans.Quality.Reason != ReasonRoundBudget {
		t.Fatalf("Quality = %+v", ans.Quality)
	}
	if ans.Cost.Runs != 1 || ans.Cost.Rounds != abortStrideSync {
		t.Fatalf("first sub-run should abort at the first poll; Cost = %+v", ans.Cost)
	}
	if !math.IsNaN(ans.Value) {
		t.Fatalf("aborted histogram should drop its value; got %v", ans.Value)
	}
}

// Mid-run cancellation (satellite: RunContext granularity): a context
// cancelled from a telemetry sink during a run aborts that run within
// one watchdog stride and surfaces the partial answer with the context
// error.
func TestMidRunCancellationReturnsPartial(t *testing.T) {
	const n = 128
	values := uniformValues(n, 41)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelAt3 := sinkFunc(func(ev *telemetry.Event) {
		if ev.Kind == telemetry.KindRound && ev.Round >= 3 {
			cancel()
		}
	})
	nw, err := New(Config{N: n, Seed: 17, Telemetry: &telemetry.Options{Sink: cancelAt3, RoundEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := nw.RunContext(ctx, MaxOf(values))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ans == nil {
		t.Fatal("cancellation should still return the partial answer")
	}
	if !ans.Quality.Partial || ans.Quality.Reason != ReasonCancelled {
		t.Fatalf("Quality = %+v", ans.Quality)
	}
	if ans.Cost.Rounds == 0 || ans.Cost.Rounds > 2*abortStrideSync {
		t.Fatalf("abort should land within a stride of the cancel; Cost.Rounds = %d", ans.Cost.Rounds)
	}
}

// Async mode honors the same watchdog: a deadline abort breaks the
// event loop gracefully and the answer carries the partial mean with
// its closing spread as the residual.
func TestAsyncDeadlinePartial(t *testing.T) {
	const n = 64
	values := uniformValues(n, 53)
	cfg := Config{N: n, Seed: 29, Mode: Async, Deadline: time.Nanosecond}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := nw.Run(AverageOf(values))
	if err != nil {
		t.Fatalf("deadline abort is degradation, not an error; got %v", err)
	}
	q := ans.Quality
	if !q.Partial || q.Reason != ReasonDeadline || q.Converged {
		t.Fatalf("Quality = %+v", q)
	}
	if ans.Cost.Rounds == 0 || ans.Cost.Rounds%abortStrideAsync != 0 {
		t.Fatalf("abort should land on an event stride; events = %d", ans.Cost.Rounds)
	}
	// Pairwise averaging closes the books on the live estimates, so even
	// a partial answer carries a finite mean and a finite residual.
	if math.IsNaN(ans.Value) {
		t.Fatal("async partial answer should keep the in-progress mean")
	}
	if q.Residual < 0 || math.IsNaN(q.Residual) {
		t.Fatalf("async Residual should be the closing spread; got %v", q.Residual)
	}
}

// Every completed answer carries a populated Quality block too:
// non-partial, converged, full survivor accounting, and the sync
// pipelines' noResidual sentinel.
func TestQualityPopulatedOnCompleteAnswers(t *testing.T) {
	const n = 81
	values := uniformValues(n, 61)
	nw, err := New(Config{N: n, Seed: 37, Faults: mustPlan(t, "crash:0.25@3r")})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{MaxOf(values), QuantileOf(values, 0.5, 1), HistogramOf(values, []float64{500})} {
		ans, err := nw.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Op, err)
		}
		qa := ans.Quality
		if qa.Partial || qa.Reason != "" || qa.Retries != 0 {
			t.Fatalf("%s: complete answer marked partial: %+v", q.Op, qa)
		}
		if qa.Converged != ans.Converged {
			t.Fatalf("%s: Quality.Converged mirror broken: %+v vs %v", q.Op, qa, ans.Converged)
		}
		if qa.Residual != noResidual {
			t.Fatalf("%s: sync Residual = %v, want %v", q.Op, qa.Residual, noResidual)
		}
		if want := float64(ans.Alive) / float64(n); qa.AliveFraction != want {
			t.Fatalf("%s: AliveFraction = %v, want %v", q.Op, qa.AliveFraction, want)
		}
		if want := float64(ans.FaultCrashes) / float64(n); qa.SurvivorBound != want {
			t.Fatalf("%s: SurvivorBound = %v, want %v", q.Op, qa.SurvivorBound, want)
		}
	}
}

// The retry policy re-runs non-converged answers on shadow epochs: the
// final answer bills every attempt and counts the restarts, and the
// parent session's stats absorb the shadow runs.
func TestRetryPolicyEpochRestart(t *testing.T) {
	const n = 64
	values := uniformValues(n, 67)
	cfg := Config{
		N:           n,
		Seed:        43,
		RoundBudget: 5, // every epoch aborts: retries exhaust Attempts
		Retry:       &RetryPolicy{Attempts: 2},
	}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := nw.Run(CountOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Quality.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", ans.Quality.Retries)
	}
	if ans.Cost.Runs != 3 || ans.Cost.Rounds != 3*abortStrideSync {
		t.Fatalf("retry cost should accumulate all attempts; Cost = %+v", ans.Cost)
	}
	if got := nw.Stats().ProtocolRuns; got != 3 {
		t.Fatalf("session should absorb shadow-run accounting; ProtocolRuns = %d", got)
	}

	// A converged first attempt never retries.
	nw2, err := New(Config{N: n, Seed: 43, Retry: &RetryPolicy{Attempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ans2, err := nw2.Run(CountOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Quality.Retries != 0 || ans2.Cost.Runs != 1 {
		t.Fatalf("healthy query retried: %+v", ans2)
	}
	// Deadline-aborted answers are not retryable: the time budget is
	// spent, so re-running could only blow past it further.
	nw3, err := New(Config{N: n, Seed: 43, Deadline: time.Nanosecond, Retry: &RetryPolicy{Attempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ans3, err := nw3.Run(CountOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if ans3.Quality.Retries != 0 || !ans3.Quality.Partial {
		t.Fatalf("deadline abort should not retry: %+v", ans3.Quality)
	}
}

// TestRetryPolicyKeepsSessionSample checks that a retried answer's
// SampleIDs are the session's sample: an epoch restart re-seeds the
// protocol, not the per-node sample, which Config.SampleNodes promises
// is identical for every query of the session. The first attempt on
// the ring does not reach AsyncEps, so the answer is the retry's.
func TestRetryPolicyKeepsSessionSample(t *testing.T) {
	const n = 256
	cfg := Config{N: n, Seed: 43, Mode: Async, Topology: Ring, AsyncEps: 1e-12, SampleNodes: 4}
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Retry = &RetryPolicy{Attempts: 1}
	retried, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	values := uniformValues(n, 67)
	want, err := plain.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	got, err := retried.Run(AverageOf(values))
	if err != nil {
		t.Fatal(err)
	}
	if got.Quality.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", got.Quality.Retries)
	}
	if !slices.Equal(got.SampleIDs, want.SampleIDs) || len(got.SampleIDs) != 4 {
		t.Fatalf("retried answer samples nodes %v, session samples %v", got.SampleIDs, want.SampleIDs)
	}
}

// A watchdog that never trips leaves every answer bit-identical to an
// unwatched session — installing the check must not perturb the run.
func TestWatchdogNoopIsBitIdentical(t *testing.T) {
	const n = 100
	values := uniformValues(n, 71)
	plain, err := New(Config{N: n, Seed: 51, Faults: mustPlan(t, "crash:0.2@0.4;rejoin@0.8")})
	if err != nil {
		t.Fatal(err)
	}
	watched, err := New(Config{N: n, Seed: 51, Faults: mustPlan(t, "crash:0.2@0.4;rejoin@0.8"),
		Deadline: time.Hour, RoundBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{MaxOf(values), AverageOf(values), QuantileOf(values, 0.9, 1)} {
		a, err := plain.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := watched.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Value != b.Value || a.Cost != b.Cost || a.Alive != b.Alive || a.Quality != b.Quality {
			t.Fatalf("%s: watchdog perturbed the run:\n %+v %+v %v\n %+v %+v %v",
				q.Op, a.Cost, a.Quality, a.Value, b.Cost, b.Quality, b.Value)
		}
	}
}
