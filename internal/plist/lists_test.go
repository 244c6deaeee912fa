package plist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"phrasemine/internal/phrasedict"
)

func entry(id uint32, prob float64) Entry {
	return Entry{Phrase: phrasedict.PhraseID(id), Prob: prob}
}

func TestScoreListValidate(t *testing.T) {
	good := ScoreList{entry(5, 0.9), entry(1, 0.5), entry(2, 0.5), entry(9, 0.1)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	bad := []ScoreList{
		{entry(1, 0.5), entry(2, 0.9)},  // ascending prob
		{entry(2, 0.5), entry(1, 0.5)},  // tie IDs descending
		{entry(1, 0.5), entry(1, 0.5)},  // tie IDs equal
		{entry(1, 0.0)},                 // zero prob must be omitted
		{entry(1, 1.5)},                 // prob > 1
		{entry(1, math.NaN())},          // NaN
		{entry(1, 0.9), entry(2, -0.1)}, // negative
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid list accepted", i)
		}
	}
}

func TestIDListValidate(t *testing.T) {
	good := IDList{entry(1, 0.9), entry(2, 0.1), entry(50, 0.5)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid ID list rejected: %v", err)
	}
	bad := []IDList{
		{entry(2, 0.5), entry(1, 0.9)}, // out of order
		{entry(2, 0.5), entry(2, 0.9)}, // duplicate ID
		{entry(2, 0)},                  // zero prob
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid ID list accepted", i)
		}
	}
}

func TestSortScoreOrder(t *testing.T) {
	l := []Entry{entry(9, 0.1), entry(2, 0.5), entry(1, 0.5), entry(5, 0.9)}
	SortScoreOrder(l)
	want := []Entry{entry(5, 0.9), entry(1, 0.5), entry(2, 0.5), entry(9, 0.1)}
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("SortScoreOrder = %v", l)
	}
	if err := ScoreList(l).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncate(t *testing.T) {
	l := ScoreList{entry(1, 0.9), entry(2, 0.8), entry(3, 0.7), entry(4, 0.6), entry(5, 0.5)}
	cases := []struct {
		frac float64
		want int
	}{
		{1.0, 5}, {0.99, 5}, {0.8, 4}, {0.5, 3}, {0.2, 1}, {0.01, 1}, {0, 0}, {-1, 0}, {2, 5},
	}
	for _, c := range cases {
		got := l.Truncate(c.frac)
		if len(got) != c.want {
			t.Errorf("Truncate(%v) len = %d, want %d", c.frac, len(got), c.want)
		}
		// Truncation must keep the highest-scored prefix.
		for i := range got {
			if got[i] != l[i] {
				t.Errorf("Truncate(%v) is not a prefix", c.frac)
			}
		}
	}
	if got := (ScoreList{}).Truncate(0.5); got != nil {
		t.Errorf("Truncate of empty = %v", got)
	}
}

func TestToIDOrdered(t *testing.T) {
	l := ScoreList{entry(17, 0.9), entry(3, 0.8), entry(99, 0.7), entry(4, 0.6)}
	idl := l.ToIDOrdered()
	if err := idl.Validate(); err != nil {
		t.Fatal(err)
	}
	wantIDs := []uint32{3, 4, 17, 99}
	for i, e := range idl {
		if uint32(e.Phrase) != wantIDs[i] {
			t.Fatalf("ToIDOrdered order = %v", idl)
		}
	}
	// Original untouched.
	if l[0].Phrase != 17 {
		t.Fatal("ToIDOrdered mutated the receiver")
	}
}

// Property: Truncate-then-IDOrder preserves exactly the top-scored entries
// (the paper's partial-list construction).
func TestPartialListProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		l := make(ScoreList, 0, n)
		seen := map[uint32]bool{}
		for len(l) < n {
			id := uint32(rng.Intn(10000))
			if seen[id] {
				continue
			}
			seen[id] = true
			l = append(l, entry(id, (1+rng.Float64()*999)/1000))
		}
		SortScoreOrder(l)
		frac := rng.Float64()
		part := l.Truncate(frac)
		idl := part.ToIDOrdered()
		if len(idl) != len(part) {
			t.Fatal("length changed")
		}
		if err := idl.Validate(); err != nil {
			t.Fatal(err)
		}
		// Smallest prob in part >= largest prob dropped.
		if len(part) > 0 && len(part) < len(l) {
			minKept := part[len(part)-1].Prob
			maxDropped := l[len(part)].Prob
			if maxDropped > minKept {
				t.Fatalf("truncation kept %v but dropped %v", minKept, maxDropped)
			}
		}
	}
}

func TestSizeBytes(t *testing.T) {
	if SizeBytes(0) != 0 || SizeBytes(100) != 1200 {
		t.Fatal("SizeBytes mismatch")
	}
}

func TestTotalEntriesAndAverage(t *testing.T) {
	lists := map[string]ScoreList{
		"a": {entry(1, 0.5), entry(2, 0.4)},
		"b": {entry(1, 0.9)},
		"c": nil,
	}
	if got := TotalEntries(lists); got != 3 {
		t.Fatalf("TotalEntries = %d", got)
	}
	if got := AverageListLen(lists); got != 1.0 {
		t.Fatalf("AverageListLen = %v", got)
	}
	if got := AverageListLen(map[string]ScoreList{}); got != 0 {
		t.Fatalf("AverageListLen(empty) = %v", got)
	}
}
