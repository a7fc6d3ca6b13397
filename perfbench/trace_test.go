package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	// A fan-out span [0,100) whose children ran on two goroutines:
	// [10,50) and [30,70) overlap, [60,80) overlaps the second, and
	// [90,120) sticks out past the parent.
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 200},
		{ID: 2, Parent: 1, Name: "fanout", Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "one", Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "one", Start: 30, End: 70},
		{ID: 5, Parent: 2, Name: "one", Start: 60, End: 80},
		{ID: 6, Parent: 2, Name: "one", Start: 90, End: 120},
	}
	self := SelfTimes(spans)
	// Children cover [10,80) ∪ [90,100) = 80 of the fan-out's 100.
	if self[2] != 20 {
		t.Errorf("fan-out self time = %d, want 20", self[2])
	}
	if self[1] != 100 {
		t.Errorf("root self time = %d, want 100", self[1])
	}
	lb := Budget(spans, "root")
	if lb.RootTotal != 200 || lb.Unattributed != 0.5 {
		t.Errorf("budget root total %d unattributed %v, want 200 and 0.5", lb.RootTotal, lb.Unattributed)
	}
	if lb.Self["one"] != 40+40+20+30 {
		t.Errorf("summed self of the children = %d, want 130", lb.Self["one"])
	}
}

func TestSelfTimeOfNestedChain(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "a", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "b", Start: 2, End: 8},
		{ID: 3, Parent: 2, Name: "c", Start: 3, End: 5},
	}
	self := SelfTimes(spans)
	if self[1] != 4 || self[2] != 4 || self[3] != 2 {
		t.Errorf("self times = %v, want a=4 b=4 c=2", self)
	}
}

func TestRecorderKeepsClosedSpansAndNilIsUntraced(t *testing.T) {
	var off *Recorder
	if id := off.Begin("x", 0, "r"); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	off.End(0)
	if off.Spans() != nil {
		t.Error("nil recorder has spans")
	}

	rec := NewRecorder()
	root := rec.Begin("root", 0, "r1")
	open := rec.Begin("never-closed", root, "r1")
	_ = open
	now := time.Now()
	rec.Add("timed", root, "r1", now, now.Add(time.Millisecond))
	rec.End(root)
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2", len(spans))
	}
	if spans[1].Parent != root || spans[1].Dur() != int64(time.Millisecond) {
		t.Errorf("added span = %+v", spans[1])
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []Span }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.Spans) != 2 {
		t.Errorf("span JSON did not round-trip: %v, %d spans", err, len(doc.Spans))
	}
}
