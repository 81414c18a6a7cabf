package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	op := opRef{Client: 1, Seq: 64}
	other := opRef{Client: 2, Seq: 64}
	spans := []span{
		{Op: op, ID: 1, Name: "root", Start: us(0), End: us(100)},
		// Overlapping children: union [10,40] = 30µs.
		{Op: op, ID: 2, Parent: 1, Name: "a", Start: us(10), End: us(30)},
		{Op: op, ID: 3, Parent: 1, Name: "b", Start: us(20), End: us(40)},
		// A child running past its parent is clipped: [90,100] = 10µs.
		{Op: op, ID: 4, Parent: 1, Name: "c", Start: us(90), End: us(120)},
		// A grandchild counts against its parent only.
		{Op: op, ID: 5, Parent: 2, Name: "d", Start: us(12), End: us(18)},
		// Same span IDs under another op must not mix.
		{Op: other, ID: 1, Name: "root", Start: us(0), End: us(50)},
		// Nor the same op of another round.
		{Round: 1, Op: op, ID: 2, Parent: 1, Name: "a", Start: us(50), End: us(60)},
	}
	got := selfTimes(spans)
	want := []time.Duration{us(60), us(14), us(20), us(30), us(6), us(50), us(10)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	rows := spanTable(spans)
	if rows[0].Name != "root" || rows[0].Count != 2 || rows[0].MeanSelfUS != 55 || rows[0].MeanUS != 75 {
		t.Errorf("root row = %+v", rows[0])
	}
}

func TestUnionLenDisjointAndNested(t *testing.T) {
	ivs := [][2]time.Duration{{50, 60}, {0, 10}, {2, 5}, {10, 20}}
	if got := unionLen(ivs); got != 30 {
		t.Errorf("unionLen = %v, want 30", got)
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("unionLen(nil) = %v", got)
	}
}
