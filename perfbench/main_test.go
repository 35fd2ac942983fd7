package main

import (
	"testing"
	"time"
)

func TestMiddle(t *testing.T) {
	ms := time.Millisecond
	if got := middle([]time.Duration{9 * ms, 1 * ms, 5 * ms}); got != 5*ms {
		t.Errorf("odd: %v", got)
	}
	if got := middle([]time.Duration{4 * ms, 1 * ms, 2 * ms, 100 * ms}); got != 3*ms {
		t.Errorf("even: %v", got)
	}
}

func TestSteadyIgnoresOneSlowCycle(t *testing.T) {
	ms := time.Millisecond
	cycle := func(scale time.Duration) []outcome {
		return []outcome{
			{wall: 10 * ms * scale, seqWalls: []time.Duration{4 * ms * scale, 6 * ms * scale}},
			{wall: 20 * ms * scale, seqWalls: []time.Duration{20 * ms * scale}},
		}
	}
	wall, seqs := steady([][]outcome{cycle(1), cycle(3), cycle(1)})
	if wall != 30*ms {
		t.Errorf("cycle wall = %v, want 30ms", wall)
	}
	want := []time.Duration{4 * ms, 6 * ms, 20 * ms}
	if len(seqs) != len(want) {
		t.Fatalf("seqs = %v", seqs)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Errorf("seq %d = %v, want %v", i, seqs[i], want[i])
		}
	}
}

func TestCheckRepeats(t *testing.T) {
	ref := []outcome{{fp: 1, queries: 5}, {fp: 2, queries: 7}}
	m := &measurement{
		plain:  [][]outcome{ref, {{fp: 1, queries: 5}, {fp: 3, queries: 7}}},
		traced: [][]outcome{{{fp: 1, queries: 5}, {fp: 2, queries: 7}}},
	}
	var c checks
	m.checkRepeats(&c)
	if len(c.failures) != 1 || c.failedQueries != 7 {
		t.Errorf("failures %v, failed queries %d; want one failure covering 7", c.failures, c.failedQueries)
	}
	m.traced[0][0].fp = 9
	c = checks{}
	m.checkRepeats(&c)
	if len(c.failures) != 2 {
		t.Errorf("a traced mismatch must fail too: %v", c.failures)
	}
}
