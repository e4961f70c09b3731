package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseFullGrammar(t *testing.T) {
	spec := "fail,worker=1,at=0.05;" +
		"stall,worker=0,from=0.02,to=0.04;" +
		"slow,worker=2,from=0,to=0.1,factor=3;" +
		"fail,node=2,at=iter:5;" +
		"crash,node=1,at=iter:3;" +
		"degrade,link,from=iter:2,to=iter:6,factor=4"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: FailStop, Worker: 1, Node: -1, AtSec: 0.05, AtIter: -1, FromIter: -1, ToIter: -1, Factor: 1},
		{Kind: Stall, Worker: 0, Node: -1, FromSec: 0.02, ToSec: 0.04, AtIter: -1, FromIter: -1, ToIter: -1, Factor: 1},
		{Kind: Slow, Worker: 2, Node: -1, FromSec: 0, ToSec: 0.1, AtIter: -1, FromIter: -1, ToIter: -1, Factor: 3},
		{Kind: FailStop, Worker: -1, Node: 2, AtIter: 5, FromIter: -1, ToIter: -1, Factor: 1},
		{Kind: crash, Worker: -1, Node: 1, AtIter: 3, FromIter: -1, ToIter: -1, Factor: 1},
		{Kind: linkDegrade, Worker: -1, Node: -1, AtIter: -1, FromIter: 2, ToIter: 6, Factor: 4},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("parsed %+v\nwant %+v", s.Events, want)
	}
	if s.empty() {
		t.Fatal("non-empty schedule reports Empty")
	}
	if !s.HasServing() || !s.HasCluster() {
		t.Fatalf("plane detection: serving=%v cluster=%v", s.HasServing(), s.HasCluster())
	}
	if got := s.MaxWorker(); got != 2 {
		t.Fatalf("MaxWorker %d", got)
	}
	if got := s.MaxNode(); got != 2 {
		t.Fatalf("MaxNode %d", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	spec := "fail,worker=1,at=0.05;slow,worker=2,from=0.01,to=0.09,factor=2.5;" +
		"fail,node=3,at=iter:7;degrade,link,from=iter:1,to=iter:4,factor=8"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.String(), err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("round trip drifted:\n %+v\n %+v", s, again)
	}
}

func TestParseEmptyAndNil(t *testing.T) {
	s, err := Parse("  ")
	if err != nil {
		t.Fatal(err)
	}
	if !s.empty() {
		t.Fatal("blank spec should be empty")
	}
	var nilSched *Schedule
	if !nilSched.empty() || nilSched.HasServing() || nilSched.HasCluster() {
		t.Fatal("nil schedule must behave as empty")
	}
	if nilSched.NodeFailIter(0) != -1 || nilSched.NodeCrashIter(0) != -1 {
		t.Fatal("nil schedule must report no node events")
	}
	if f := nilSched.LinkFactor(3); f != 1 {
		t.Fatalf("nil schedule link factor %v", f)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"explode,worker=1", "unknown event kind"},
		{"fail,worker=1", "needs at="}, // not a silent fail-stop at t=0
		{"fail,at=0.5", "needs worker= or node="},
		{"fail,worker=1,at=-2", "finite at ≥ 0"},
		{"fail,node=1,at=0.5", "needs at=iter:K"},
		{"crash,worker=1,at=iter:2", "targets training nodes"},
		{"stall,node=1,from=0,to=1", "targets serving workers"},
		{"stall,worker=0,from=0.4,to=0.2", "from < to"},
		{"slow,worker=0,from=0,to=1,factor=0.5", "factor 0.5 < 1"},
		{"degrade,link,from=iter:5,to=iter:2,factor=2", "iterations"},
		{"degrade,link,from=iter:0,to=iter:2,factor=0.9", "factor 0.9 < 1"},
		{"fail,worker=1,at=0.1;fail,worker=1,at=0.2", "fail-stops twice"},
		{"fail,node=1,at=iter:1;crash,node=1,at=iter:2", "dies twice"},
		{"fail,worker=x,at=0.1", "bad worker"},
		{"slow,worker=0,from=0,to=1,oops=3", "unknown field"},
		{"slow,worker=0,from=0,to=1,factor", "not key=value"},
		// Non-finite numbers pass a bare comparison; each is named.
		{"fail,worker=1,at=NaN", "finite at ≥ 0"},
		{"fail,worker=1,at=+Inf", "finite at ≥ 0"},
		{"slow,worker=0,from=0,to=1,factor=NaN", "factor NaN"},
		{"slow,worker=0,from=0,to=1,factor=+Inf", "factor +Inf"},
		{"degrade,link,from=iter:0,to=iter:2,factor=NaN", "factor NaN"},
		{"stall,worker=0,from=0,to=+Inf", "finite 0 ≤ from < to"},
		{"stall,worker=0,from=NaN,to=1", "finite 0 ≤ from < to"},
		// Nothing is defaulted: every field of the kind is required, once.
		{"stall,worker=0,to=1", "needs from="},
		{"slow,worker=0,from=0,to=1", "needs factor="},
		{"degrade,link,from=iter:0,to=iter:2", "needs factor="},
		{"fail,worker=1,at=0.1,at=0.2", `"at" given twice`},
		// Nothing is dropped: one target, and only the kind's own fields, in
		// the unit of the target's plane.
		{"fail,worker=1,node=2,at=0.1", "two targets"},
		{"crash,worker=1,node=2,at=iter:1", "targets training nodes"},
		{"slow,worker=0,node=1,from=0,to=1,factor=2", "targets serving workers"},
		{"degrade,link,node=1,from=iter:0,to=iter:2,factor=2", "targets the ring link"},
		{"stall,worker=0,from=0,to=1,factor=7", `unknown field "factor" for a stall event`},
		{"fail,worker=0,at=0.1,factor=0", `unknown field "factor" for a fail event`},
		{"fail,link,worker=0,at=0.1", `field "link" is not key=value`},
		{"degrade,link=1,from=iter:0,to=iter:2,factor=2", `unknown field "link" for a degrade event`},
		{"fail,worker=1,at=iter:3", "timed in virtual seconds"},
		{"stall,worker=0,from=iter:1,to=2", "window is in virtual seconds"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error %v, want substring %q", c.spec, err, c.wantSub)
		}
	}
}

func TestLinkFactorWindows(t *testing.T) {
	s, err := Parse("degrade,link,from=iter:2,to=iter:4,factor=3;degrade,link,from=iter:3,to=iter:5,factor=2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{0: 1, 1: 1, 2: 3, 3: 6, 4: 2, 5: 1}
	for it, f := range want {
		if got := s.LinkFactor(it); got != f {
			t.Errorf("LinkFactor(%d) = %v, want %v", it, got, f)
		}
	}
}

func TestNodeQueries(t *testing.T) {
	s, err := Parse("fail,node=2,at=iter:5;crash,node=0,at=iter:1")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NodeFailIter(2); got != 5 {
		t.Fatalf("NodeFailIter(2) = %d", got)
	}
	if got := s.NodeFailIter(0); got != -1 {
		t.Fatalf("NodeFailIter(0) = %d", got)
	}
	if got := s.NodeCrashIter(0); got != 1 {
		t.Fatalf("NodeCrashIter(0) = %d", got)
	}
	if got := s.NodeCrashIter(2); got != -1 {
		t.Fatalf("NodeCrashIter(2) = %d", got)
	}
}

// allFinite reports whether every float of every event is a finite number.
func allFinite(s *Schedule) bool {
	for _, e := range s.Events {
		for _, v := range []float64{e.AtSec, e.FromSec, e.ToSec, e.Factor} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// Whatever Parse accepts is a valid, finite schedule that its own rendering
// reproduces exactly; whatever it rejects, it rejects with an error, not a
// panic. Seeds: the grammar's doc-comment examples and the inputs the parser
// used to accept by defaulting, dropping or mis-comparing a field.
func FuzzParseFaultSchedule(f *testing.F) {
	for _, seed := range []string{
		"fail,worker=1,at=0.05",
		"stall,worker=0,from=0.02,to=0.04",
		"slow,worker=2,from=0,to=0.1,factor=3",
		"fail,node=2,at=iter:5",
		"crash,node=1,at=iter:3",
		"degrade,link,from=iter:2,to=iter:6,factor=4",
		"fail,worker=1,at=0.05;slow,worker=0,from=0.02,to=0.04,factor=3; ;",
		"fail,worker=1", "fail,worker=1,at=NaN", "slow,worker=0,from=0,to=1,factor=+Inf",
		"degrade,link,from=iter:0,to=iter:2,factor=NaN", "stall,worker=0,from=0,to=+Inf",
		"fail,worker=1,node=2,at=0.1", "stall,worker=0,from=0,to=1,factor=7",
		"fail,worker=0,at=0.1,factor=0", "fail,worker=1,at=iter:3", "fail,worker=1,at=-0",
		"slow,worker=0,from=1e-320,to=1e308,factor=1.7976931348623157e308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a schedule Validate rejects: %v", spec, err)
		}
		if !allFinite(s) {
			t.Fatalf("Parse(%q) accepted a non-finite number: %+v", spec, s.Events)
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not re-parse: %v", spec, s.String(), err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("Parse(%q) round trip via %q drifted:\n %+v\n %+v", spec, s.String(), s, again)
		}
	})
}
