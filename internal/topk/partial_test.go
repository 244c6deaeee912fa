package topk

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
)

// referenceMergePartials is the sort-based oracle: sum counts per phrase
// in a map, score with the identical arithmetic (per-feature division by
// DF, accumulation in feature order), sort by (score desc, ID asc) and
// truncate. MergePartials must match it bit for bit.
func referenceMergePartials(parts []PartialList, opt MergeOptions) []Result {
	type acc struct {
		sums []uint32
	}
	byID := map[phrasedict.PhraseID]*acc{}
	for _, p := range parts {
		for i, id := range p.IDs {
			a := byID[id]
			if a == nil {
				a = &acc{sums: make([]uint32, opt.R)}
				byID[id] = a
			}
			for f := 0; f < opt.R; f++ {
				a.sums[f] += p.Counts[i*opt.R+f]
			}
		}
	}
	var out []Result
	for id, a := range byID {
		if int(id) >= len(opt.DF) || opt.DF[id] == 0 {
			continue
		}
		df := float64(opt.DF[id])
		score := 0.0
		present := 0
		for f := 0; f < opt.R; f++ {
			if a.sums[f] == 0 {
				continue
			}
			present++
			score += entryScore(opt.Op, float64(a.sums[f])/df)
		}
		if present == 0 || (opt.Op == corpus.OpAND && present != opt.R) {
			continue
		}
		out = append(out, Result{Phrase: id, Score: score, Lower: score, Upper: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Phrase < out[j].Phrase
	})
	if len(out) > opt.K {
		out = out[:opt.K]
	}
	return out
}

func TestMergePartialsMatchesReference(t *testing.T) {
	df := []uint32{10, 4, 8, 5, 0, 6, 3}
	parts := []PartialList{
		{IDs: []phrasedict.PhraseID{0, 2, 5}, Counts: []uint32{3, 1, 2, 0, 1, 1}},
		{IDs: []phrasedict.PhraseID{0, 1, 4, 6}, Counts: []uint32{1, 0, 2, 2, 3, 1, 0, 0}},
		{}, // empty shard
		{IDs: []phrasedict.PhraseID{2, 3}, Counts: []uint32{0, 4, 1, 1}},
	}
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		for _, k := range []int{1, 3, 10} {
			opt := MergeOptions{K: k, Op: op, R: 2, DF: df}
			got, err := MergePartials(parts, opt)
			if err != nil {
				t.Fatalf("%v k=%d: %v", op, k, err)
			}
			want := referenceMergePartials(parts, opt)
			if !resultsBitEqual(got, want) {
				t.Fatalf("%v k=%d: got %v want %v", op, k, got, want)
			}
		}
	}
}

func TestMergePartialsValidation(t *testing.T) {
	df := []uint32{5, 5}
	if _, err := MergePartials(nil, MergeOptions{K: 0, Op: corpus.OpOR, R: 1, DF: df}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := MergePartials(nil, MergeOptions{K: 1, Op: corpus.OpOR, R: 0, DF: df}); err == nil {
		t.Error("R=0 accepted")
	}
	// Count row shape mismatch.
	bad := []PartialList{{IDs: []phrasedict.PhraseID{0}, Counts: []uint32{1, 2}}}
	if _, err := MergePartials(bad, MergeOptions{K: 1, Op: corpus.OpOR, R: 1, DF: df}); err == nil {
		t.Error("mismatched count row accepted")
	}
	// Non-ascending IDs.
	unsorted := []PartialList{{IDs: []phrasedict.PhraseID{1, 0}, Counts: []uint32{1, 1}}}
	if _, err := MergePartials(unsorted, MergeOptions{K: 1, Op: corpus.OpOR, R: 1, DF: df}); err == nil {
		t.Error("unsorted partial list accepted")
	}
	// Phrase beyond the DF table.
	over := []PartialList{{IDs: []phrasedict.PhraseID{7}, Counts: []uint32{1}}}
	if _, err := MergePartials(over, MergeOptions{K: 1, Op: corpus.OpOR, R: 1, DF: df}); err == nil {
		t.Error("phrase beyond DF table accepted")
	}
	// No shards at all: empty result, no error.
	res, err := MergePartials(nil, MergeOptions{K: 3, Op: corpus.OpOR, R: 1, DF: df})
	if err != nil || len(res) != 0 {
		t.Errorf("empty merge: %v, %v", res, err)
	}
}

// TestMergePartialsMatchesSMJ checks the canonical-arithmetic claim
// directly: splitting each feature's count mass across shards and merging
// must reproduce SMJ over lists built from the total counts, bit for bit.
func TestMergePartialsMatchesSMJ(t *testing.T) {
	df := []uint32{12, 9, 30, 7, 15}
	// Per-feature total co-occurrence counts per phrase.
	counts := [][]uint32{
		{4, 0, 21, 7, 3},
		{6, 9, 1, 0, 15},
		{2, 3, 0, 5, 1},
	}
	r := len(counts)
	// Build the monolithic ID-ordered lists; fresh cursors per SMJ run.
	mkCursors := func() []plist.Cursor {
		cursors := make([]plist.Cursor, r)
		for f := 0; f < r; f++ {
			var l plist.IDList
			for p, c := range counts[f] {
				if c > 0 {
					l = append(l, plist.Entry{Phrase: phrasedict.PhraseID(p), Prob: float64(c) / float64(df[p])})
				}
			}
			cursors[f] = plist.NewMemCursor(l)
		}
		return cursors
	}
	// Split the counts across three shards deterministically.
	split := func(c uint32) [3]uint32 {
		a := c / 3
		b := c / 4
		return [3]uint32{a, b, c - a - b}
	}
	parts := make([]PartialList, 3)
	for p := range df {
		var rows [3][]uint32
		any := [3]bool{}
		for f := 0; f < r; f++ {
			s := split(counts[f][p])
			for sh := 0; sh < 3; sh++ {
				rows[sh] = append(rows[sh], s[sh])
				if s[sh] > 0 {
					any[sh] = true
				}
			}
		}
		for sh := 0; sh < 3; sh++ {
			if !any[sh] {
				continue
			}
			parts[sh].IDs = append(parts[sh].IDs, phrasedict.PhraseID(p))
			parts[sh].Counts = append(parts[sh].Counts, rows[sh]...)
		}
	}
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		want, _, err := runSMJ(mkCursors(), SMJOptions{K: 4, Op: op})
		if err != nil {
			t.Fatal(err)
		}
		got, err := MergePartials(parts, MergeOptions{K: 4, Op: op, R: r, DF: df})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitEqual(want, got) {
			t.Fatalf("%v: SMJ %v vs merged %v", op, want, got)
		}
	}
}

func resultsBitEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Phrase != b[i].Phrase ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func TestScanGroups(t *testing.T) {
	lists := []plist.IDList{
		{{Phrase: 0, Prob: 0.5}, {Phrase: 2, Prob: 0.25}, {Phrase: 3, Prob: 1}},
		{{Phrase: 2, Prob: 0.75}, {Phrase: 4, Prob: 0.1}},
	}
	cursors := []plist.Cursor{plist.NewMemCursor(lists[0]), plist.NewMemCursor(lists[1])}
	type group struct {
		id    phrasedict.PhraseID
		probs []float64
		seen  uint64
	}
	var got []group
	s := NewScratch(0)
	err := ScanGroupsCtx(context.Background(), cursors, s, func(id phrasedict.PhraseID, probs []float64, seen uint64) {
		cp := make([]float64, len(probs))
		copy(cp, probs)
		got = append(got, group{id: id, probs: cp, seen: seen})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []group{
		{id: 0, probs: []float64{0.5, 0}, seen: 1},
		{id: 2, probs: []float64{0.25, 0.75}, seen: 3},
		{id: 3, probs: []float64{1, 0.75}, seen: 1},
		{id: 4, probs: []float64{1, 0.1}, seen: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].id != want[i].id || got[i].seen != want[i].seen {
			t.Fatalf("group %d: got (%d,%b) want (%d,%b)", i, got[i].id, got[i].seen, want[i].id, want[i].seen)
		}
		for f := 0; f < 2; f++ {
			if want[i].seen&(1<<f) != 0 && got[i].probs[f] != want[i].probs[f] {
				t.Fatalf("group %d list %d: prob %v want %v", i, f, got[i].probs[f], want[i].probs[f])
			}
		}
	}
	if !reflect.DeepEqual(got[1].probs, []float64{0.25, 0.75}) {
		t.Fatalf("probs buffer not populated: %v", got[1].probs)
	}
}
