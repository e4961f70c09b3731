// Package fault is the deterministic fault-injection subsystem: a schedule
// of scripted events on the virtual clock, parsed from a compact text spec,
// that both planes of the runtime consume — the serving fleet (worker
// fail-stop, transient stalls, straggler service-time inflation) and the
// training cluster (node fail-stop or hard crash at an iteration, ring-link
// degradation over an iteration window). The package is a leaf: it knows
// nothing about serve or cluster, it only describes *when* and *where*
// things break. Everything is driven by virtual time (seconds for serving,
// iteration indices for training), so a given schedule replays bit-exactly.
// Every query is nil-safe and answers "never"/"healthy" when nothing is
// scripted, so an empty schedule is the fault-free run: consumers run the
// same code either way.
package fault

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind enumerates the scripted failure modes.
type Kind int

const (
	// FailStop removes the target permanently: a serving worker at AtSec
	// virtual seconds, or a training node before ring round AtIter. The
	// survivors re-form and continue.
	FailStop Kind = iota
	// crash is the training-only hard failure: the node's engine errors out
	// at iteration AtIter and the ring aborts — the terminal path, scripted
	// so the abort/error-aggregation machinery stays tested.
	crash
	// Stall freezes a serving worker over [FromSec, ToSec): batches that
	// would start inside the window start at its end instead.
	Stall
	// Slow inflates a serving worker's service time by Factor for batches
	// starting inside [FromSec, ToSec) — the scripted straggler.
	Slow
	// linkDegrade divides the training ring link's effective bandwidth by
	// Factor for iterations in [FromIter, ToIter).
	linkDegrade
)

// String names the kind the way the spec grammar spells it.
func (k Kind) String() string {
	switch k {
	case FailStop:
		return "fail"
	case crash:
		return "crash"
	case Stall:
		return "stall"
	case Slow:
		return "slow"
	case linkDegrade:
		return "degrade"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scripted fault. Exactly one of Worker/Node is set (≥ 0) for
// targeted events; linkDegrade targets the ring link and sets neither.
// Serving events are timed in virtual seconds (AtSec / FromSec..ToSec);
// training events in cumulative ring-iteration indices (AtIter /
// FromIter..ToIter; iteration counting does not reset between epochs).
type Event struct {
	Kind   Kind
	Worker int // serving worker pool index, -1 when not a serving event
	Node   int // training node rank, -1 when not a node event

	AtSec            float64 // FailStop (serving)
	AtIter           int     // FailStop/crash (training), -1 unset
	FromSec, ToSec   float64 // Stall/Slow window (serving)
	FromIter, ToIter int     // linkDegrade window (training), -1 unset
	Factor           float64 // Slow/linkDegrade inflation, ≥ 1
}

// Schedule is an ordered set of scripted events. The zero value and nil are
// both valid empty schedules.
type Schedule struct {
	Events []Event
}

// empty reports whether the schedule carries no events (nil-safe).
func (s *Schedule) empty() bool { return s == nil || len(s.Events) == 0 }

// HasServing reports whether any event targets a serving worker.
func (s *Schedule) HasServing() bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Worker >= 0 {
			return true
		}
	}
	return false
}

// HasCluster reports whether any event targets a training node or the ring
// link.
func (s *Schedule) HasCluster() bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Node >= 0 || e.Kind == linkDegrade {
			return true
		}
	}
	return false
}

// MaxWorker returns the highest worker index referenced (-1 when none).
func (s *Schedule) MaxWorker() int {
	m := -1
	if s == nil {
		return m
	}
	for _, e := range s.Events {
		if e.Worker > m {
			m = e.Worker
		}
	}
	return m
}

// MaxNode returns the highest node rank referenced (-1 when none).
func (s *Schedule) MaxNode() int {
	m := -1
	if s == nil {
		return m
	}
	for _, e := range s.Events {
		if e.Node > m {
			m = e.Node
		}
	}
	return m
}

// NodeFailIter returns the iteration before which node rank fail-stops, or
// -1 when the schedule never kills it.
func (s *Schedule) NodeFailIter(rank int) int {
	if s == nil {
		return -1
	}
	for _, e := range s.Events {
		if e.Kind == FailStop && e.Node == rank {
			return e.AtIter
		}
	}
	return -1
}

// NodeCrashIter returns the iteration at which node rank hard-crashes, or -1.
func (s *Schedule) NodeCrashIter(rank int) int {
	if s == nil {
		return -1
	}
	for _, e := range s.Events {
		if e.Kind == crash && e.Node == rank {
			return e.AtIter
		}
	}
	return -1
}

// LinkFactor returns the ring link's bandwidth-degradation factor at the
// given iteration (1 when no window covers it; factors of overlapping
// windows multiply).
func (s *Schedule) LinkFactor(iter int) float64 {
	f := 1.0
	if s == nil {
		return f
	}
	for _, e := range s.Events {
		if e.Kind == linkDegrade && iter >= e.FromIter && iter < e.ToIter {
			f *= e.Factor
		}
	}
	return f
}

// finiteAtLeast reports whether v is a finite number ≥ min (NaN and ±Inf are
// not: a comparison alone lets both through).
func finiteAtLeast(v, min float64) bool { return v >= min && !math.IsInf(v, 1) }

// Validate checks every event's shape: exactly the target its kind takes,
// times in the unit of its plane (virtual seconds for serving workers,
// iterations for training), windows ordered, every number finite, factors
// ≥ 1, and at most one fail-stop or crash per target. Rules that need the
// fleet's size are its consumer's: a training schedule that fail-stops every
// node, leaving no survivor, is rejected by the cluster's configuration check.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	seenWorkerFail := map[int]bool{}
	seenNodeEnd := map[int]bool{}
	for i, e := range s.Events {
		switch e.Kind {
		case FailStop:
			switch {
			case e.Worker >= 0 && e.Node >= 0:
				return fmt.Errorf("fault: event %d: fail names two targets (worker=%d and node=%d)", i, e.Worker, e.Node)
			case e.Worker >= 0:
				if e.AtIter >= 0 {
					return fmt.Errorf("fault: event %d: fail worker=%d is timed in virtual seconds (at=T), not at=iter:%d",
						i, e.Worker, e.AtIter)
				}
				if !finiteAtLeast(e.AtSec, 0) {
					return fmt.Errorf("fault: event %d: fail worker=%d needs a finite at ≥ 0 (got %v)", i, e.Worker, e.AtSec)
				}
				if seenWorkerFail[e.Worker] {
					return fmt.Errorf("fault: event %d: worker %d fail-stops twice", i, e.Worker)
				}
				seenWorkerFail[e.Worker] = true
			case e.Node >= 0:
				if e.AtIter < 0 {
					return fmt.Errorf("fault: event %d: fail node=%d needs at=iter:K", i, e.Node)
				}
				if seenNodeEnd[e.Node] {
					return fmt.Errorf("fault: event %d: node %d dies twice", i, e.Node)
				}
				seenNodeEnd[e.Node] = true
			default:
				return fmt.Errorf("fault: event %d: fail needs worker= or node=", i)
			}
		case crash:
			if e.Node < 0 || e.Worker >= 0 {
				return fmt.Errorf("fault: event %d: crash targets training nodes (node=)", i)
			}
			if e.AtIter < 0 {
				return fmt.Errorf("fault: event %d: crash node=%d needs at=iter:K", i, e.Node)
			}
			if seenNodeEnd[e.Node] {
				return fmt.Errorf("fault: event %d: node %d dies twice", i, e.Node)
			}
			seenNodeEnd[e.Node] = true
		case Stall, Slow:
			if e.Worker < 0 || e.Node >= 0 {
				return fmt.Errorf("fault: event %d: %s targets serving workers (worker=)", i, e.Kind)
			}
			if e.FromIter >= 0 || e.ToIter >= 0 {
				return fmt.Errorf("fault: event %d: %s worker=%d window is in virtual seconds, not iter:K",
					i, e.Kind, e.Worker)
			}
			if !(finiteAtLeast(e.FromSec, 0) && finiteAtLeast(e.ToSec, 0) && e.ToSec > e.FromSec) {
				return fmt.Errorf("fault: event %d: %s worker=%d needs finite 0 ≤ from < to (got [%v,%v))",
					i, e.Kind, e.Worker, e.FromSec, e.ToSec)
			}
			if e.Kind == Slow && !finiteAtLeast(e.Factor, 1) {
				return fmt.Errorf("fault: event %d: slow factor %v < 1 or not finite", i, e.Factor)
			}
		case linkDegrade:
			if e.Worker >= 0 || e.Node >= 0 {
				return fmt.Errorf("fault: event %d: degrade targets the ring link, not worker=/node=", i)
			}
			if !(e.FromIter >= 0 && e.ToIter > e.FromIter) {
				return fmt.Errorf("fault: event %d: degrade link needs 0 ≤ from < to iterations (got [%d,%d))",
					i, e.FromIter, e.ToIter)
			}
			if !finiteAtLeast(e.Factor, 1) {
				return fmt.Errorf("fault: event %d: degrade factor %v < 1 or not finite", i, e.Factor)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// String renders the schedule back in the spec grammar (a parse of the
// result yields an equal schedule).
func (s *Schedule) String() string {
	if s.empty() {
		return ""
	}
	parts := make([]string, 0, len(s.Events))
	for _, e := range s.Events {
		var b strings.Builder
		b.WriteString(e.Kind.String())
		switch {
		case e.Worker >= 0:
			fmt.Fprintf(&b, ",worker=%d", e.Worker)
		case e.Node >= 0:
			fmt.Fprintf(&b, ",node=%d", e.Node)
		default:
			b.WriteString(",link")
		}
		switch e.Kind {
		case FailStop:
			if e.Worker >= 0 {
				fmt.Fprintf(&b, ",at=%g", e.AtSec)
			} else {
				fmt.Fprintf(&b, ",at=iter:%d", e.AtIter)
			}
		case crash:
			fmt.Fprintf(&b, ",at=iter:%d", e.AtIter)
		case Stall:
			fmt.Fprintf(&b, ",from=%g,to=%g", e.FromSec, e.ToSec)
		case Slow:
			fmt.Fprintf(&b, ",from=%g,to=%g,factor=%g", e.FromSec, e.ToSec, e.Factor)
		case linkDegrade:
			fmt.Fprintf(&b, ",from=iter:%d,to=iter:%d,factor=%g", e.FromIter, e.ToIter, e.Factor)
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ";")
}

// Parse reads a fault schedule from the compact spec grammar — events
// separated by ';', fields by ',', in the same shape as the serving
// workload spec:
//
//	fail,worker=1,at=0.05            worker 1 fail-stops at 0.05 virtual sec
//	stall,worker=0,from=0.02,to=0.04 worker 0 freezes over the window
//	slow,worker=2,from=0,to=0.1,factor=3   scripted straggler (3× service)
//	fail,node=2,at=iter:5            node 2 fail-stops before ring round 5
//	crash,node=1,at=iter:3           node 1 hard-crashes (ring aborts)
//	degrade,link,from=iter:2,to=iter:6,factor=4  ring link at 1/4 bandwidth
//
// An empty spec returns an empty (non-nil) schedule. Iteration indices are
// cumulative across epochs and count ring rounds from 0. An event carries
// exactly its kind's fields, each once — nothing is defaulted and nothing is
// dropped, so Parse(s.String()) equals s for every schedule Parse returns.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		fields := strings.Split(entry, ",")
		e := Event{Worker: -1, Node: -1, AtIter: -1, FromIter: -1, ToIter: -1, Factor: 1}
		switch strings.TrimSpace(fields[0]) {
		case "fail":
			e.Kind = FailStop
		case "crash":
			e.Kind = crash
		case "stall":
			e.Kind = Stall
		case "slow":
			e.Kind = Slow
		case "degrade":
			e.Kind = linkDegrade
		default:
			return nil, fmt.Errorf("fault: %q: unknown event kind %q (want fail, crash, stall, slow, or degrade)",
				entry, fields[0])
		}
		seen := map[string]bool{}
		for _, f := range fields[1:] {
			f = strings.TrimSpace(f)
			if f == "link" && e.Kind == linkDegrade { // bare target marker
				continue
			}
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("fault: %q: field %q is not key=value", entry, f)
			}
			if seen[key] {
				return nil, fmt.Errorf("fault: %q: field %q given twice", entry, key)
			}
			seen[key] = true
			if key != "worker" && key != "node" && !slices.Contains(kindFields[e.Kind], key) {
				return nil, fmt.Errorf("fault: %q: unknown field %q for a %s event (beyond its target it takes %s)",
					entry, key, e.Kind, strings.Join(kindFields[e.Kind], ", "))
			}
			var err error
			switch key {
			case "worker":
				e.Worker, err = parseIndex(val)
			case "node":
				e.Node, err = parseIndex(val)
			case "at":
				err = parseWhen(val, &e.AtSec, &e.AtIter)
			case "from":
				err = parseWhen(val, &e.FromSec, &e.FromIter)
			case "to":
				err = parseWhen(val, &e.ToSec, &e.ToIter)
			case "factor":
				e.Factor, err = strconv.ParseFloat(val, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: %q: bad %s: %w", entry, key, err)
			}
		}
		for _, key := range kindFields[e.Kind] {
			if !seen[key] {
				return nil, fmt.Errorf("fault: %q: a %s event needs %s=", entry, e.Kind, key)
			}
		}
		s.Events = append(s.Events, e)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// kindFields lists the fields, beyond its worker=/node= target, that each
// kind's events carry, all required. Validate owns which target a kind takes.
var kindFields = [...][]string{
	FailStop:    {"at"},
	crash:       {"at"},
	Stall:       {"from", "to"},
	Slow:        {"from", "to", "factor"},
	linkDegrade: {"from", "to", "factor"},
}

// parseIndex parses a non-negative target index.
func parseIndex(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return -1, err
	}
	if n < 0 {
		return -1, fmt.Errorf("negative index %d", n)
	}
	return n, nil
}

// parseWhen parses a time field: "iter:K" sets the iteration slot, a plain
// float the virtual-seconds slot.
func parseWhen(val string, sec *float64, iter *int) error {
	if k, ok := strings.CutPrefix(val, "iter:"); ok {
		n, err := strconv.Atoi(k)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("negative iteration %d", n)
		}
		*iter = n
		return nil
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	*sec = v
	return nil
}
