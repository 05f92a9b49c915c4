// The invariant library: what must hold of every answer a case
// produces, graded by how much the case's fault plan can legitimately
// degrade. Soundness rules the grading — an invariant is only asserted
// where the protocol actually guarantees it, so a reported violation is
// a real bug, never fuzzing noise:
//
//   - healthy tier (no plan, no loss): answers are exact (Max/Min to
//     the bit, Count = n, push-sum results to relerr 1e-5).
//   - stable tier (plan changes no membership — loss bursts, flaky
//     regions, partitions, link cuts): Max/Min still report a value
//     from the input multiset, Average stays inside the input convex
//     hull (push-sum ratios are convex combinations as long as nobody
//     crashes), Sum/Count/Rank stay finite and non-negative.
//   - churn tier (crashes, rejoins, Poisson churn): only the universal
//     invariants below.
//
// Universal (all tiers): every query terminates inside the round-budget
// backstop; histogram counts are non-negative, sum to the measured
// population, and agree with an independently-run Rank; answers are
// bit-identical under replay and across RunAll worker counts; the async
// engine's partial means stay in the convex hull; and the Quality block
// obeys its contract (never NaN, Partial ⇔ an abort reason).

package chaos

import (
	"fmt"
	"math"

	"drrgossip"
	"drrgossip/internal/agg"
	"drrgossip/internal/faults"
)

// SyncBudget is the Config.RoundBudget backstop the synchronous battery
// runs under: two orders of magnitude above any legitimate run (a few
// hundred rounds at n=256), so tripping it means the run wedged. The
// async leg runs without it — the event engine caps itself.
const SyncBudget = 50_000

// countSlack bounds how far Sum/Count/Rank answers may overshoot their
// population under non-membership faults (heavy loss skews push-sum
// ratios in both directions before the budgeted rounds run out).
// Calibrated over 2000 generated cases; see chaos_test.go.
const countSlack = 2.0

// Violation is one invariant breach of one case.
type Violation struct {
	// Invariant names the breached invariant (stable identifier).
	Invariant string
	// Detail is the human-readable specifics.
	Detail string
}

// String renders the violation as "invariant: detail".
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// tier classifies how much the case's plan may legitimately degrade
// answers (see the package comment of this file).
type tier int

const (
	tierHealthy tier = iota // no plan, no loss: exactness holds
	tierStable              // faults but stable membership: soundness holds
	tierChurn               // membership changes: universal invariants only
)

// TierNames are the display names of the invariant tiers, indexed like
// Report.ByTier and Case.Tier.
var TierNames = [3]string{"healthy", "membership-stable", "churn"}

// Tier returns the case's invariant tier as an index into TierNames and
// Report.ByTier: 0 healthy, 1 membership-stable, 2 churn.
func (c Case) Tier() int { return int(c.tier()) }

func (c Case) tier() tier {
	if c.Plan.Empty() && c.Loss == 0 {
		return tierHealthy
	}
	if c.Plan != nil {
		for _, ev := range c.Plan.Events {
			switch ev.Kind {
			case faults.Crash, faults.Rejoin, faults.ChurnKind:
				return tierChurn
			}
		}
	}
	return tierStable
}

// battery is the query set every case runs, with the value dataset and
// its exact statistics.
type battery struct {
	values  []float64
	min     float64
	max     float64
	sum     float64
	inSet   map[uint64]bool // Float64bits of every input value
	queries []drrgossip.Query
}

// batteryEdges are the histogram edges and the rank/quantile probes —
// interior points of the GenUniform(0,1000) value range.
var batteryEdges = []float64{250, 500, 750}

const (
	batteryRankProbe   = 500.0
	batteryQuantilePhi = 0.5
	batteryQuantileTol = 25.0
)

// batteryQueryNames index the battery positionally (the checks below
// pick answers out by these offsets).
const (
	qMax = iota
	qMin
	qSum
	qCount
	qAverage
	qRank
	qHistogram
	qQuantile
)

func newBattery(c Case) *battery {
	b := &battery{values: agg.GenUniform(c.N, 0, 1000, c.Seed^0xDA7A)}
	b.min, b.max = math.Inf(1), math.Inf(-1)
	b.inSet = make(map[uint64]bool, len(b.values))
	for _, v := range b.values {
		b.sum += v
		b.min = math.Min(b.min, v)
		b.max = math.Max(b.max, v)
		b.inSet[math.Float64bits(v)] = true
	}
	b.queries = []drrgossip.Query{
		drrgossip.MaxOf(b.values),
		drrgossip.MinOf(b.values),
		drrgossip.SumOf(b.values),
		drrgossip.CountOf(b.values),
		drrgossip.AverageOf(b.values),
		drrgossip.RankOf(b.values, batteryRankProbe),
		drrgossip.HistogramOf(b.values, batteryEdges),
		drrgossip.QuantileOf(b.values, batteryQuantilePhi, batteryQuantileTol),
	}
	return b
}

// CheckCase runs the full battery on both engines and returns every
// invariant violation (nil for a clean case). The returned violations
// describe the case as given; the fuzzer shrinks failing cases before
// reporting them.
func CheckCase(c Case) []Violation {
	var vs []Violation
	fail := func(inv, format string, args ...any) {
		vs = append(vs, Violation{inv, fmt.Sprintf(format, args...)})
	}
	if c.N < 2 {
		fail("harness", "n=%d below the minimum network size", c.N)
		return vs
	}
	b := newBattery(c)

	// Synchronous battery.
	nw, err := drrgossip.New(c.config(SyncBudget))
	if err != nil {
		fail("harness", "New: %v", err)
		return vs
	}
	answers := make([]*drrgossip.Answer, len(b.queries))
	for i, q := range b.queries {
		ans, err := nw.Run(q)
		if err != nil {
			fail("termination", "%s: %v", q.Op, err)
			return vs
		}
		answers[i] = ans
		checkQuality(c, q.Op.String(), ans, fail)
	}
	checkSyncValues(c, b, answers, fail)
	checkHistogramConsistency(b, answers, fail)
	checkQuantileMethods(c, b, answers, fail)
	checkDeterminism(c, b, answers, fail)
	checkAsync(c, b, fail)
	return vs
}

// checkQuality asserts the degradation contract on one answer: the
// backstopped battery must terminate properly (a round-budget abort at
// SyncBudget means the run wedged), and the Quality block must be
// internally consistent and NaN-free.
func checkQuality(c Case, op string, ans *drrgossip.Answer, fail func(string, string, ...any)) {
	q := ans.Quality
	if q.Partial || q.Reason != "" {
		fail("termination", "%s wedged: aborted by %q after %d rounds (budget %d)",
			op, q.Reason, ans.Cost.Rounds, SyncBudget)
		return
	}
	if q.Converged != ans.Converged {
		fail("quality", "%s: Quality.Converged %v but Answer.Converged %v", op, q.Converged, ans.Converged)
	}
	if q.AliveFraction <= 0 || q.AliveFraction > 1 || math.IsNaN(q.AliveFraction) {
		fail("quality", "%s: AliveFraction %v out of (0,1]", op, q.AliveFraction)
	}
	if q.SurvivorBound < 0 || q.SurvivorBound > 1 || math.IsNaN(q.SurvivorBound) {
		fail("quality", "%s: SurvivorBound %v out of [0,1]", op, q.SurvivorBound)
	}
	if math.IsNaN(q.Residual) {
		fail("quality", "%s: Residual is NaN", op)
	}
}

// checkSyncValues asserts the tier-graded value invariants on the
// synchronous answers.
func checkSyncValues(c Case, b *battery, answers []*drrgossip.Answer, fail func(string, string, ...any)) {
	n := float64(c.N)
	maxV, minV := answers[qMax].Value, answers[qMin].Value
	sumV, countV, aveV := answers[qSum].Value, answers[qCount].Value, answers[qAverage].Value
	rankV, quantV := answers[qRank].Value, answers[qQuantile].Value

	// Universal: every single-value answer is finite (Histogram's Value
	// is NaN by contract and carries its data in Counts).
	for _, i := range []int{qMax, qMin, qSum, qCount, qAverage, qRank, qQuantile} {
		if math.IsNaN(answers[i].Value) || math.IsInf(answers[i].Value, 0) {
			fail("finite", "%s reported %v", answers[i].Op, answers[i].Value)
			return
		}
	}
	// Universal: Max/Min only ever propagate input values.
	if !b.inSet[math.Float64bits(maxV)] {
		fail("max-membership", "Max %v is not an input value", maxV)
	}
	if !b.inSet[math.Float64bits(minV)] {
		fail("min-membership", "Min %v is not an input value", minV)
	}
	// Universal: non-negative inputs keep every mass estimate
	// non-negative, and population estimates cannot run away.
	if sumV < 0 || countV <= 0 || rankV < 0 {
		fail("mass-sign", "Sum %v / Count %v / Rank %v negative on non-negative inputs", sumV, countV, rankV)
	}
	if countV > countSlack*n || rankV > countSlack*n {
		fail("population-bound", "Count %v / Rank %v exceed %gx the population %d", countV, rankV, countSlack, c.N)
	}
	if answers[qQuantile].Converged && (quantV < minV-1e-9 || quantV > maxV+1e-9) {
		fail("quantile-range", "Quantile %v outside reported [Min,Max]=[%v,%v]", quantV, minV, maxV)
	}

	switch c.tier() {
	case tierHealthy:
		// Rank cross-consistency: both quantile drivers converge on a
		// value whose true rank covers the target — bisection keeps the
		// upper bracket end (rank >= t by the loop invariant), HMS
		// certifies the exact order statistic.
		target := int(math.Ceil(batteryQuantilePhi * n))
		if got := exactRank(b.values, quantV); got < target {
			fail("quantile-rank", "healthy Quantile[%s] %v has rank %d < target %d",
				c.QuantileMethod, quantV, got, target)
		}
		exactQ := agg.Quantile(b.values, batteryQuantilePhi)
		if c.QuantileMethod == drrgossip.QuantileHMS {
			if quantV != exactQ {
				fail("exact", "healthy Quantile[hms] = %v, want exactly %v", quantV, exactQ)
			}
		} else if math.Abs(quantV-exactQ) > batteryQuantileTol {
			fail("exact", "healthy Quantile[bisect] = %v, want %v within tol %g",
				quantV, exactQ, batteryQuantileTol)
		}
		if maxV != b.max || minV != b.min {
			fail("exact", "healthy Max/Min = %v/%v, want %v/%v", maxV, minV, b.max, b.min)
		}
		if math.Round(countV) != n {
			fail("exact", "healthy Count = %v, want %d", countV, c.N)
		}
		if relerr(sumV, b.sum) > 1e-5 {
			fail("exact", "healthy Sum = %v, want %v (relerr %g)", sumV, b.sum, relerr(sumV, b.sum))
		}
		if relerr(aveV, b.sum/n) > 1e-5 {
			fail("exact", "healthy Average = %v, want %v", aveV, b.sum/n)
		}
		if math.Round(rankV) != float64(exactRank(b.values, batteryRankProbe)) {
			fail("exact", "healthy Rank(%g) = %v, want %d", batteryRankProbe, rankV, exactRank(b.values, batteryRankProbe))
		}
	case tierStable:
		// No crashes: push-sum ratios are convex combinations of the
		// inputs, so the average cannot leave the input hull.
		if aveV < b.min-1e-9 || aveV > b.max+1e-9 {
			fail("average-hull", "Average %v outside input hull [%v,%v] under membership-stable plan", aveV, b.min, b.max)
		}
	}
}

// checkQuantileMethods is the differential invariant of the quantile
// drivers: the case's method answered in the battery; here the OTHER
// method answers the same query on a fresh session, and the two must
// agree within 2x the query tolerance. Gated to the non-churn tiers —
// under membership churn each driver's step sequence replays the plan
// at different round offsets, so their surviving populations (and hence
// their quantiles) may legitimately differ.
func checkQuantileMethods(c Case, b *battery, answers []*drrgossip.Answer, fail func(string, string, ...any)) {
	if c.tier() == tierChurn {
		return
	}
	other := c
	if c.QuantileMethod == drrgossip.QuantileHMS {
		other.QuantileMethod = drrgossip.QuantileBisect
	} else {
		other.QuantileMethod = drrgossip.QuantileHMS
	}
	nw, err := drrgossip.New(other.config(SyncBudget))
	if err != nil {
		fail("harness", "cross-method New: %v", err)
		return
	}
	ans, err := nw.Run(b.queries[qQuantile])
	if err != nil {
		fail("termination", "Quantile[%s]: %v", other.QuantileMethod, err)
		return
	}
	mine := answers[qQuantile]
	if !mine.Converged || !ans.Converged {
		return // an honest non-convergence is a looser answer, not a disagreement
	}
	if d := math.Abs(ans.Value - mine.Value); d > 2*batteryQuantileTol {
		fail("quantile-methods", "Quantile[%s] %v vs Quantile[%s] %v differ by %v > 2·tol",
			c.QuantileMethod, mine.Value, other.QuantileMethod, ans.Value, d)
	}
}

// checkHistogramConsistency asserts the cross-query count invariants
// every tier guarantees: bucket counts are non-negative, they sum to
// the histogram's own population measurement, the cumulative counts
// agree with an independently-run Rank at the shared edge, and in the
// healthy tier they match the exact histogram.
func checkHistogramConsistency(b *battery, answers []*drrgossip.Answer, fail func(string, string, ...any)) {
	hist := answers[qHistogram]
	if len(hist.Counts) != len(batteryEdges)+1 {
		fail("histogram-shape", "got %d buckets, want %d", len(hist.Counts), len(batteryEdges)+1)
		return
	}
	total := 0.0
	for i, cnt := range hist.Counts {
		if cnt < -1e-6 {
			fail("histogram-negative", "bucket %d count %v", i, cnt)
		}
		total += cnt
	}
	// The battery's Count answer replays the same deterministic dynamics
	// as the histogram's own population run, so the two agree exactly.
	if countV := math.Round(answers[qCount].Value); math.Abs(total-countV) > 1e-6 {
		fail("histogram-count", "bucket counts sum to %v but Count measures %v", total, countV)
	}
	// Counts[0]+Counts[1] is the histogram's cumulative count at edge
	// 500 — the same measurement the standalone Rank(500) makes.
	if cum := hist.Counts[0] + hist.Counts[1]; math.Abs(cum-math.Round(answers[qRank].Value)) > 1e-6 {
		fail("histogram-rank", "cumulative count at %g is %v but Rank says %v",
			batteryRankProbe, cum, math.Round(answers[qRank].Value))
	}
}

// checkDeterminism replays the battery on a fresh session and again
// through RunAll's concurrent path, asserting bit-identical answers —
// the repo-wide determinism contract extended to every faulted case.
func checkDeterminism(c Case, b *battery, answers []*drrgossip.Answer, fail func(string, string, ...any)) {
	replay, err := drrgossip.New(c.config(SyncBudget))
	if err != nil {
		fail("harness", "replay New: %v", err)
		return
	}
	for i, q := range b.queries {
		again, err := replay.Run(q)
		if err != nil {
			fail("determinism-replay", "%s errored on replay only: %v", q.Op, err)
			return
		}
		if diff := answerDiff(answers[i], again); diff != "" {
			fail("determinism-replay", "%s drifted across replays: %s", q.Op, diff)
		}
	}
	parallel, err := drrgossip.New(c.config(SyncBudget))
	if err != nil {
		fail("harness", "parallel New: %v", err)
		return
	}
	par, _, err := parallel.RunAll(b.queries, drrgossip.BatchOptions{Parallelism: 4})
	if err != nil {
		fail("determinism-workers", "RunAll(workers=4) errored: %v", err)
		return
	}
	for i := range par {
		if diff := answerDiff(answers[i], par[i]); diff != "" {
			fail("determinism-workers", "%s drifted under workers=4: %s", b.queries[i].Op, diff)
		}
	}
}

// checkAsync runs the case's Average on the asynchronous engine (both
// engines see every case) and asserts the pairwise-averaging
// invariants: termination inside the engine's own event cap, estimates
// inside the input convex hull (exchanges are convex combinations even
// across crash boundaries), healthy-tier mean preservation, and replay
// determinism.
func checkAsync(c Case, b *battery, fail func(string, string, ...any)) {
	cfg := c.config(0)
	cfg.Mode = drrgossip.Async
	run := func() *drrgossip.Answer {
		nw, err := drrgossip.New(cfg)
		if err != nil {
			fail("harness", "async New: %v", err)
			return nil
		}
		ans, err := nw.Run(drrgossip.AverageOf(b.values))
		if err != nil {
			fail("termination", "async Average: %v", err)
			return nil
		}
		return ans
	}
	ans := run()
	if ans == nil {
		return
	}
	if math.IsNaN(ans.Value) || math.IsInf(ans.Value, 0) {
		fail("finite", "async Average reported %v", ans.Value)
		return
	}
	if ans.Value < b.min-1e-6 || ans.Value > b.max+1e-6 {
		fail("async-hull", "async Average %v outside input hull [%v,%v]", ans.Value, b.min, b.max)
	}
	if math.IsNaN(ans.Quality.Residual) || ans.Quality.Residual < 0 {
		fail("quality", "async Residual %v", ans.Quality.Residual)
	}
	if c.tier() == tierHealthy {
		// Mean preservation holds on every topology (each exchange is a
		// convex, sum-conserving update); convergence inside the default
		// event cap is only guaranteed on Complete — pairwise averaging
		// mixes slowly on grid-like overlays, and that slowness is a
		// measured property (AS1), not a violation.
		mean := b.sum / float64(c.N)
		if relerr(ans.Value, mean) > 1e-6 {
			fail("async-mean", "healthy async Average %v, want %v (relerr %g)", ans.Value, mean, relerr(ans.Value, mean))
		}
		if c.Topology == drrgossip.Complete && !ans.Converged {
			fail("async-convergence", "healthy async Average did not converge on Complete (spread %v after %d events)",
				ans.Quality.Residual, ans.Cost.Rounds)
		}
	}
	if again := run(); again != nil {
		if diff := answerDiff(ans, again); diff != "" {
			fail("determinism-replay", "async Average drifted across replays: %s", diff)
		}
	}
}

// answerDiff compares two answers bit-for-bit (NaN-safe) and describes
// the first divergence, or returns "" when identical.
func answerDiff(a, b *drrgossip.Answer) string {
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
		return fmt.Sprintf("Value %v vs %v", a.Value, b.Value)
	}
	if a.Cost != b.Cost {
		return fmt.Sprintf("Cost %+v vs %+v", a.Cost, b.Cost)
	}
	if a.Alive != b.Alive || a.Converged != b.Converged || a.Consensus != b.Consensus {
		return fmt.Sprintf("state (alive %d conv %v cons %v) vs (alive %d conv %v cons %v)",
			a.Alive, a.Converged, a.Consensus, b.Alive, b.Converged, b.Consensus)
	}
	if a.FaultEvents != b.FaultEvents || a.FaultCrashes != b.FaultCrashes || a.FaultRevives != b.FaultRevives {
		return fmt.Sprintf("fault counters %d/%d/%d vs %d/%d/%d",
			a.FaultEvents, a.FaultCrashes, a.FaultRevives, b.FaultEvents, b.FaultCrashes, b.FaultRevives)
	}
	if a.Quality != b.Quality {
		return fmt.Sprintf("Quality %+v vs %+v", a.Quality, b.Quality)
	}
	if len(a.Counts) != len(b.Counts) {
		return fmt.Sprintf("Counts len %d vs %d", len(a.Counts), len(b.Counts))
	}
	for i := range a.Counts {
		if math.Float64bits(a.Counts[i]) != math.Float64bits(b.Counts[i]) {
			return fmt.Sprintf("Counts[%d] %v vs %v", i, a.Counts[i], b.Counts[i])
		}
	}
	return ""
}

// relerr is the relative error of got against want (absolute error when
// want is ~0).
func relerr(got, want float64) float64 {
	d := math.Abs(got - want)
	if math.Abs(want) < 1 {
		return d
	}
	return d / math.Abs(want)
}

// exactRank counts values <= probe — the survivor-exact Rank reference.
func exactRank(values []float64, probe float64) int {
	k := 0
	for _, v := range values {
		if v <= probe {
			k++
		}
	}
	return k
}
