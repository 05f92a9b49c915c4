// Parse: the textual fault-plan spec grammar used by the CLIs.
//
//	plan  := event (';' event)*
//	event := kind (':' arg)* ('@' time ('..' time)?)
//	time  := absolute round ("120" or "120r") |
//	         fraction of the run horizon ("0.5"; must contain a '.')
//
// Kinds and their arguments (F is a node amount: a fraction when it
// carries a '.' or exponent marker — "0.2", "1.0" — an absolute count
// when it is a bare integer, or an explicit id list "#3,7,9"):
//
//	crash:F[@T[..T2]]   crash F nodes at T; with ..T2 they rejoin at T2
//	rack:F[@T[..T2]]    same, but a contiguous id block (correlated rack)
//	rejoin[:F][@T]      revive dead nodes at T: a fraction F revives that
//	                    share of the currently dead, a count F that many
//	                    of them; omitted F revives every dead node
//	churn:R[:D]         Poisson churn: expected R·n crashes over the whole
//	                    run; each node rejoins after D rounds (D absent =
//	                    never); no @-window — churn spans the run
//	loss:D@T..T2        extra per-link drop probability D during [T,T2)
//	part:G@T..T2        partition into G isolated random groups
//	flaky:F:D@T..T2     extra loss D on links touching an F-node region
//	link:A-B@T..T2      blackout the single link A-B
//
// Omitted start times default to 0.5 (mid-run) — 0.75 for rejoin — and
// an omitted ..T2 leaves the fault active until the run ends. Examples:
//
//	crash:0.2@0.5              kill 20% of nodes halfway through
//	churn:0.3:40               30%·n Poisson crashes, 40-round downtime
//	part:2@0.25..0.75;loss:0.2@0.5..0.9
//	rack:0.1@100r..400r        rack outage between rounds 100 and 400
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse parses a fault-plan spec string. An empty spec (or "none") is
// the empty plan. Parse rejects every event Validate would reject for
// any network size (a loss outside its range, NaN, a crash with no
// nodes); the checks against the node count wait for Validate.
func Parse(spec string) (*Plan, error) {
	text := strings.TrimSpace(spec)
	if text == "" || strings.EqualFold(text, "none") {
		return &Plan{}, nil
	}
	plan := &Plan{Spec: text}
	for _, part := range strings.Split(text, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err == nil {
			err = ev.check()
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %q: %v", ErrBadPlan, part, err)
		}
		plan.Events = append(plan.Events, ev)
	}
	if len(plan.Events) == 0 {
		return nil, fmt.Errorf("%w: %q has no events", ErrBadPlan, spec)
	}
	return plan, nil
}

func parseEvent(text string) (Event, error) {
	head, timePart, hasTime := strings.Cut(text, "@")
	fields := strings.Split(head, ":")
	kind := strings.ToLower(strings.TrimSpace(fields[0]))
	args := fields[1:]

	var ev Event
	var err error
	switch kind {
	case "crash", "rack":
		ev.Kind = Crash
		ev.Contiguous = kind == "rack"
		ev.At = AtFrac(0.5)
		if len(args) != 1 {
			return ev, fmt.Errorf("want %s:F", kind)
		}
		if ev.Nodes, ev.Frac, ev.Count, err = parseNodeSet(args[0]); err != nil {
			return ev, err
		}
	case "rejoin":
		ev.Kind = Rejoin
		ev.At = AtFrac(0.75)
		switch len(args) {
		case 0: // revive everyone dead
		case 1:
			if ev.Nodes, ev.Frac, ev.Count, err = parseNodeSet(args[0]); err != nil {
				return ev, err
			}
		default:
			return ev, fmt.Errorf("want rejoin or rejoin:F")
		}
	case "churn":
		ev.Kind = ChurnKind
		if len(args) < 1 || len(args) > 2 {
			return ev, fmt.Errorf("want churn:R or churn:R:D")
		}
		if ev.Rate, err = strconv.ParseFloat(args[0], 64); err != nil {
			return ev, fmt.Errorf("bad churn rate %q", args[0])
		}
		if len(args) == 2 {
			if ev.Down, err = strconv.Atoi(args[1]); err != nil {
				return ev, fmt.Errorf("bad churn downtime %q", args[1])
			}
		}
		if hasTime {
			return ev, fmt.Errorf("churn spans the whole run; no @-window allowed")
		}
	case "loss":
		ev.Kind = LossBurst
		ev.At = AtFrac(0.5)
		if len(args) != 1 {
			return ev, fmt.Errorf("want loss:D")
		}
		if ev.Loss, err = strconv.ParseFloat(args[0], 64); err != nil {
			return ev, fmt.Errorf("bad loss %q", args[0])
		}
	case "part":
		ev.Kind = Partition
		ev.At = AtFrac(0.5)
		if len(args) != 1 {
			return ev, fmt.Errorf("want part:G")
		}
		if ev.Groups, err = strconv.Atoi(args[0]); err != nil {
			return ev, fmt.Errorf("bad group count %q", args[0])
		}
	case "flaky":
		ev.Kind = Flaky
		ev.At = AtFrac(0.5)
		if len(args) != 2 {
			return ev, fmt.Errorf("want flaky:F:D")
		}
		if ev.Nodes, ev.Frac, ev.Count, err = parseNodeSet(args[0]); err != nil {
			return ev, err
		}
		if ev.Loss, err = strconv.ParseFloat(args[1], 64); err != nil {
			return ev, fmt.Errorf("bad flaky loss %q", args[1])
		}
	case "link":
		ev.Kind = LinkDown
		ev.At = AtFrac(0.5)
		if len(args) != 1 {
			return ev, fmt.Errorf("want link:A-B")
		}
		a, b, ok := strings.Cut(args[0], "-")
		if !ok {
			return ev, fmt.Errorf("want link:A-B")
		}
		if ev.A, err = strconv.Atoi(a); err != nil {
			return ev, fmt.Errorf("bad endpoint %q", a)
		}
		if ev.B, err = strconv.Atoi(b); err != nil {
			return ev, fmt.Errorf("bad endpoint %q", b)
		}
	default:
		return ev, fmt.Errorf("unknown fault kind %q", kind)
	}

	if hasTime {
		at, end, windowed := strings.Cut(timePart, "..")
		if ev.At, err = parseTiming(at); err != nil {
			return ev, err
		}
		if windowed {
			if ev.End, err = parseTiming(end); err != nil {
				return ev, err
			}
			if ev.End.isZero() {
				return ev, fmt.Errorf("window end must be after the start")
			}
		}
	}
	return ev, nil
}

// parseNodeSet reads a node set argument: an explicit "#"-prefixed
// comma-separated id list, or an amount (see parseAmount).
func parseNodeSet(text string) (nodes []int, frac float64, count int, err error) {
	if !strings.HasPrefix(text, "#") {
		frac, count, err = parseAmount(text)
		return nil, frac, count, err
	}
	for _, field := range strings.Split(text[1:], ",") {
		id, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || id < 0 {
			return nil, 0, 0, fmt.Errorf("bad node id %q in %q", field, text)
		}
		nodes = append(nodes, id)
	}
	if len(nodes) == 0 {
		return nil, 0, 0, fmt.Errorf("empty node list %q", text)
	}
	return nodes, 0, 0, nil
}

// parseAmount reads a node amount: a fraction in [0,1] when the text
// carries a '.' or exponent marker (so "1.0" is the whole population,
// not a count of one), otherwise an absolute integer count.
func parseAmount(text string) (frac float64, count int, err error) {
	v, err := strconv.ParseFloat(text, 64)
	if err != nil || v < 0 {
		return 0, 0, fmt.Errorf("bad node amount %q", text)
	}
	if strings.ContainsAny(text, ".eE") {
		if v > 1 {
			return 0, 0, fmt.Errorf("fractional node amount %q must be <= 1", text)
		}
		return v, 0, nil
	}
	if v != math.Trunc(v) {
		return 0, 0, fmt.Errorf("node amount %q must be a fraction <= 1 or an integer count", text)
	}
	return 0, int(v), nil
}

// parseTiming reads a time: "0.5" / "1.0" / "5e-2" (horizon fraction,
// marked by a '.' or an exponent), "120" or "120r" (absolute round).
func parseTiming(text string) (Timing, error) {
	text = strings.TrimSpace(text)
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil || f < 0 || f > 1 {
			return Timing{}, fmt.Errorf("bad time fraction %q (want [0,1])", text)
		}
		return AtFrac(f), nil
	}
	r, err := strconv.Atoi(strings.TrimSuffix(text, "r"))
	if err != nil || r < 0 {
		return Timing{}, fmt.Errorf("bad round %q", text)
	}
	return At(r), nil
}
