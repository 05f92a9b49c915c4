// The fuzzing campaign driver: generate cases, check them, shrink the
// failures, and fold everything into one report the CLI and the CH1
// experiment render.

package chaos

import (
	"fmt"
	"io"

	"drrgossip"
)

// Options parameterise a fuzzing campaign.
type Options struct {
	// Cases is the number of generated cases (default 200).
	Cases int
	// Seed keys the campaign; equal seeds generate identical case
	// sequences and therefore identical reports.
	Seed uint64
	// Corpus is a set of pinned reproducer lines (Case.String form)
	// replayed before the generated cases — the regression corpus.
	Corpus []string
	// ForceMethod, when non-nil, overrides every generated case's
	// quantile method — the per-method calibration campaigns pin both
	// drivers to the same case sequence. Corpus lines keep their own.
	ForceMethod *drrgossip.QuantileMethod
	// Progress, when non-nil, receives one line per checked case.
	Progress io.Writer
}

// Failure is one fuzz case that breached an invariant, with its
// delta-debugged minimal reproducer.
type Failure struct {
	// Case is the case as generated (or as pinned in the corpus).
	Case Case
	// Violations are the breaches the original case produced.
	Violations []Violation
	// Minimized is the shrunk reproducer (equal to Case when shrinking
	// could not remove anything); Reproducer is its one-line form, ready
	// to be appended to the regression corpus.
	Minimized  Case
	Reproducer string
}

// Report is a fuzzing campaign's outcome.
type Report struct {
	// Checked counts the cases run (corpus + generated); ByTier splits
	// them by invariant tier (indexed tierHealthy..tierChurn).
	Checked int
	ByTier  [3]int
	// Failures lists every case that breached an invariant.
	Failures []Failure
}

// Clean reports whether the campaign found no violations.
func (r *Report) Clean() bool { return len(r.Failures) == 0 }

// Fuzz runs a campaign: every corpus line first (a corpus failure is a
// regression), then opts.Cases generated cases, shrinking each failure
// to its minimal reproducer.
func Fuzz(opts Options) (*Report, error) {
	cases := opts.Cases
	if cases == 0 {
		cases = 200
	}
	rep := &Report{}
	run := func(c Case, label string) {
		rep.Checked++
		rep.ByTier[c.tier()]++
		vs := CheckCase(c)
		if opts.Progress != nil {
			status := "ok"
			if len(vs) > 0 {
				status = vs[0].String()
			}
			fmt.Fprintf(opts.Progress, "%s: %s: %s\n", label, c, status)
		}
		if len(vs) == 0 {
			return
		}
		min := Shrink(c, func(cand Case) bool { return len(CheckCase(cand)) > 0 }, DefaultShrinkBudget)
		rep.Failures = append(rep.Failures, Failure{
			Case:       c,
			Violations: vs,
			Minimized:  min,
			Reproducer: min.String(),
		})
	}
	for i, line := range opts.Corpus {
		c, err := ParseCase(line)
		if err != nil {
			return nil, fmt.Errorf("chaos: corpus line %d: %v", i+1, err)
		}
		run(c, fmt.Sprintf("corpus[%d]", i))
	}
	for i := 0; i < cases; i++ {
		c := Generate(opts.Seed, i)
		if opts.ForceMethod != nil {
			c.QuantileMethod = *opts.ForceMethod
		}
		run(c, fmt.Sprintf("case[%d]", i))
	}
	return rep, nil
}
