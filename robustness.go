// Bounded degradation: the per-query watchdog behind Config.Deadline
// and Config.RoundBudget, the Quality block every Answer carries, and
// the epoch-restart retry loop behind Config.Retry. The contract (see
// docs/ROBUSTNESS.md): a query never hangs on a wedging fault plan —
// the watchdog aborts the run at stride granularity and the query
// returns a partial Answer whose Quality says what happened — and the
// session's own limits (deadline, budget) are degradation, not errors;
// only context cancellation surfaces as an error alongside the partial
// answer.

package drrgossip

import (
	"context"
	"errors"
	"time"

	core "drrgossip/internal/drrgossip"
	"drrgossip/internal/faults"
)

// ErrDeadlineExceeded is the abort cause of a query run stopped by
// Config.Deadline. It is reported through Quality (Reason "deadline"),
// not returned as an error: the query still yields its partial Answer.
var ErrDeadlineExceeded = errors.New("drrgossip: query deadline exceeded")

// ErrRoundBudget is the abort cause of a run stopped by
// Config.RoundBudget; reported through Quality (Reason "round-budget").
var ErrRoundBudget = errors.New("drrgossip: round budget exhausted")

// abortStrideSync and abortStrideAsync are the watchdog polling
// strides: every k synchronous rounds / async events the engine
// consults the check. A synchronous round is O(alive) work while an
// async event is O(1), hence the asymmetry; both keep the no-watchdog
// hot path untouched (no check installed) and the watchdog overhead
// well under the cost of the work between polls.
const (
	abortStrideSync  = 16
	abortStrideAsync = 1024
)

// noResidual is the Quality.Residual value of execution models that
// define no convergence residual (the synchronous exact pipelines). A
// sentinel outside the residual's [0, ∞) range rather than NaN, so
// answers stay DeepEqual-comparable.
const noResidual = -1

// watchdog is the per-query abort check installed on the engines for
// the duration of one query attempt: round/event budget, context
// cancellation, wall-clock deadline — cheapest test first. It remembers
// the cause it aborted with, which is how the executor learns that a run
// it got back was cut short (a query stops at its first abort).
type watchdog struct {
	ctx      context.Context
	deadline time.Time
	budget   int
	cause    error
}

// newWatchdog builds the query's watchdog, or nil when nothing could
// ever trip it (uncancellable context, no deadline, no budget) — the
// common case, which stays zero-overhead: no check is installed at all.
func (nw *Network) newWatchdog(ctx context.Context) *watchdog {
	w := &watchdog{ctx: ctx, budget: nw.cfg.RoundBudget}
	if nw.cfg.Deadline > 0 {
		w.deadline = time.Now().Add(nw.cfg.Deadline)
	}
	if ctx.Done() == nil && w.deadline.IsZero() && w.budget <= 0 {
		return nil
	}
	return w
}

// check is the engine-facing watchdog hook, consulted every abort
// stride with the run's progress counter (rounds or events). A non-nil
// return aborts the run and is remembered as the abort cause.
func (w *watchdog) check(progress int) error {
	if w.budget > 0 && progress > w.budget {
		w.cause = ErrRoundBudget
	} else if err := w.ctx.Err(); err != nil {
		w.cause = err
	} else if !w.deadline.IsZero() && !time.Now().Before(w.deadline) {
		w.cause = ErrDeadlineExceeded
	}
	return w.cause
}

// aborted returns the cause the watchdog aborted a run with: nil when it
// never tripped, or when no watchdog is installed at all.
func (w *watchdog) aborted() error {
	if w == nil {
		return nil
	}
	return w.cause
}

// isAbort reports whether err originated from a watchdog abort (or a
// pre-run context check) rather than a protocol or configuration
// failure — only abort causes produce partial answers.
func isAbort(err error) bool {
	return errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrRoundBudget) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// terminalAbort reports whether the abort cause must surface as an
// error alongside the partial answer: context cancellation is the
// caller asking to stop, while the session's own Deadline and
// RoundBudget are degradation contracts absorbed into Quality.
func terminalAbort(err error) bool {
	return err != nil && !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrRoundBudget)
}

// abortReason maps an abort cause to its Quality.Reason label.
func abortReason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadlineExceeded):
		return ReasonDeadline
	case errors.Is(err, ErrRoundBudget):
		return ReasonRoundBudget
	default:
		return ReasonCancelled
	}
}

// finish closes a query's Answer, single-run or composite. cause is the
// abort cause (nil for a complete query): a partial answer keeps
// whatever its runs salvaged — the bill always; NaN for an aborted
// synchronous pipeline or composite, the closing estimates and their
// spread for pairwise averaging — never claims convergence, and carries
// the reason in Quality. Errors that are not aborts pass through with no
// answer, and only terminal causes (cancellation) come back as the error
// too. PerNode is materialized as Config.SampleNodes asks, and the
// Quality block is stamped from the answer's own fields and the residual
// its run reported.
func (nw *Network) finish(ans *Answer, cause error) (*Answer, error) {
	if cause != nil && !isAbort(cause) {
		return nil, cause
	}
	ans.Converged = ans.Converged && cause == nil
	ans.PerNode, ans.SampleIDs = nw.materializePerNode(ans.PerNode)
	ans.Quality = Quality{
		Partial:       cause != nil,
		Reason:        abortReason(cause),
		AliveFraction: float64(ans.Alive) / float64(nw.cfg.N),
		Converged:     ans.Converged,
		Residual:      ans.Quality.Residual,
		SurvivorBound: float64(ans.FaultCrashes) / float64(nw.cfg.N),
	}
	if terminalAbort(cause) {
		return ans, cause
	}
	return ans, nil
}

// retryable reports whether an answer qualifies for an epoch-restart
// re-run: anything non-converged, except deadline aborts (the budget is
// spent) and cancellations (the caller asked to stop).
func retryable(ans *Answer) bool {
	switch ans.Quality.Reason {
	case ReasonDeadline, ReasonCancelled:
		return false
	}
	return !ans.Converged
}

// retrySeedStride is the seed advance per retry attempt: the odd 64-bit
// golden-ratio constant, so successive epochs land in well-separated
// regions of the seed space.
const retrySeedStride = 0x9E3779B97F4A7C15

// runWithRetry executes one query, then — when a RetryPolicy is set and
// the answer is retryable — re-runs it on shadow epoch sessions until
// an attempt converges or the attempts are exhausted. The returned
// answer is the last attempt's, its Cost and PhaseCosts accumulated over
// every attempt (the query paid for all of them) and Quality.Retries
// counting the restarts.
func (nw *Network) runWithRetry(ctx context.Context, q Query) (*Answer, error) {
	ans, err := nw.runQuery(ctx, q)
	return nw.retry(ctx, q, ans, err)
}

// retry is runWithRetry after q's first attempt returned ans and err:
// it re-runs q alone, on shadow epochs, while the policy allows and the
// answer is retryable.
func (nw *Network) retry(ctx context.Context, q Query, ans *Answer, err error) (*Answer, error) {
	pol := nw.cfg.Retry
	if pol == nil || err != nil || ans == nil || !retryable(ans) {
		return ans, err
	}
	best := ans
	for attempt := 1; attempt <= pol.Attempts; attempt++ {
		shadow := nw.epochSession(uint64(attempt) * retrySeedStride)
		next, err := shadow.runQuery(ctx, q)
		nw.stats.add(shadow.stats)
		if err != nil {
			// Cancelled (or failed) mid-retry: surface the error with the
			// best completed attempt so far.
			return best, err
		}
		next.Cost = best.Cost.Add(next.Cost)
		next.PhaseCosts = mergePhaseCosts(best.PhaseCosts, next.PhaseCosts)
		next.Quality.Retries = attempt
		best = next
		if !retryable(next) {
			break
		}
	}
	return best, nil
}

// epochSession replicates the session for one retry epoch: the same
// (immutable) overlay and per-node sample, the config re-seeded by
// seedOffset, fresh fault bindings (the new seed draws new crash sets
// and loss decisions under the same symbolic plan), and no observers or
// telemetry — retries are follow-up work of the same query, and their
// round streams would interleave confusingly with the primary
// session's.
func (nw *Network) epochSession(seedOffset uint64) *Network {
	cfg := nw.cfg
	cfg.Seed += seedOffset
	cfg.Retry = nil
	return &Network{cfg: cfg, ov: nw.ov, bounds: make(map[core.Kind]*faults.Bound), sample: nw.sampleSet()}
}
