package serve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
)

// A trace file is outside input: whatever is wrong with it must come back as
// an error naming the culprit — from ReadTrace when the text alone shows it,
// from Run when it takes the graph to see it — never as a panic or as a
// loaded trace that breaks the stream contracts.
func TestMalformedTraceRejected(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		atRun      bool // ReadTrace accepts; Run must reject
		want       string
	}{
		{name: "negative count", body: " n=-1\n", want: "header"},
		{name: "count promises what the lines do not hold", body: " n=4611686018427387904\n0 1 0x1p-10 0 0\n", want: "promises"},
		{name: "NaN arrival", body: " n=1\n0 1 NaN 0 0\n", want: "finite"},
		{name: "+Inf arrival", body: " n=1\n0 1 +Inf 0 0\n", want: "finite"},
		{name: "-Inf arrival", body: " n=1\n0 1 -Inf 0 0\n", want: "finite"},
		{name: "negative arrival", body: " n=1\n0 1 -0x1p-1 0 0\n", want: "non-negative"},
		{name: "NaN between unordered arrivals", body: " n=3\n0 1 0x1p-3 0 0\n1 1 NaN 0 0\n2 1 -0x1p-1 0 0\n", want: "request 1"},
		{name: "vertex past the graph", body: " n=2\n0 1 0x1p-10 0 0\n1 1073741824 0x1p-9 0 0\n", atRun: true, want: "request 1"},
		{name: "negative vertex", body: " n=1\n0 -3 0x1p-10 0 0\n", atRun: true, want: "vertex -3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ReadTrace(strings.NewReader(traceHeader + tc.body))
			if tc.atRun {
				if err != nil {
					t.Fatalf("ReadTrace: %v", err)
				}
				cfg := baseConfig(testSetup(t))
				cfg.Replay = tr
				_, err = Run(cfg)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// A Trace built in memory never passes ReadTrace's class check, so Run checks
// each replayed request's class at the door. A class past the SLO classes
// must come back as an error naming the request — not as an index panic once
// a fail-stop re-routes it under SLO targets, nor as a run that quietly
// leaves it out of every per-class figure and the fairness index.
func TestReplayClassOutOfRangeRejected(t *testing.T) {
	ds, m := testSetup(t)
	failStop, err := fault.Parse("fail,worker=2,at=0.01")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sched *fault.Schedule
	}{{"fail-stop", failStop}, {"fault-free", nil}} {
		cfg := goldenServeConfig(ds, m)
		tr, err := GenerateTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Requests {
			tr.Requests[i].Class = NumClasses
		}
		cfg.Workload, cfg.Replay, cfg.Faults = nil, tr, c.sched
		cfg.SLOTargets = []ClassSLO{{Class: ClassInteractive, TargetSec: 2e-3}}
		_, err = Run(cfg)
		want := fmt.Sprintf("request %d has class %d", tr.Requests[0].ID, NumClasses)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want one mentioning %q", c.name, err, want)
		}
	}
}
