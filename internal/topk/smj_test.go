package topk

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
)

// idCursorsOf converts score lists into ID-ordered memory cursors (the SMJ
// input layout).
// runSMJ runs SMJScratch on a fresh scratch arena.
func runSMJ(cursors []plist.Cursor, opt SMJOptions) ([]Result, SMJStats, error) {
	return SMJScratch(cursors, opt, NewScratch(0))
}

func idCursorsOf(lists ...plist.ScoreList) []plist.Cursor {
	out := make([]plist.Cursor, len(lists))
	for i, l := range lists {
		out[i] = plist.NewMemCursor(l.ToIDOrdered())
	}
	return out
}

func TestSMJValidation(t *testing.T) {
	c := idCursorsOf(plist.ScoreList{e(1, 0.5)})
	if _, _, err := runSMJ(c, SMJOptions{K: 0, Op: corpus.OpOR}); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, _, err := runSMJ(nil, SMJOptions{K: 1, Op: corpus.OpOR}); err == nil {
		t.Fatal("no lists should error")
	}
	if _, _, err := runSMJ(c, SMJOptions{K: 1, Op: corpus.Operator(7)}); err == nil {
		t.Fatal("bad operator should error")
	}
}

func TestSMJBasicOR(t *testing.T) {
	l1 := plist.ScoreList{e(1, 0.5), e(2, 0.4), e(3, 0.1)}
	l2 := plist.ScoreList{e(2, 0.9), e(4, 0.3), e(1, 0.2)}
	want := naiveTopK([]plist.ScoreList{l1, l2}, corpus.OpOR, 3)
	got, stats, err := runSMJ(idCursorsOf(l1, l2), SMJOptions{K: 3, Op: corpus.OpOR})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idsOfResults(got), idsOfResults(want)) {
		t.Fatalf("SMJ = %v, want %v", idsOfResults(got), idsOfResults(want))
	}
	if stats.EntriesRead != 6 {
		t.Fatalf("EntriesRead = %d, want 6 (SMJ scans everything)", stats.EntriesRead)
	}
	if stats.Candidates != 4 {
		t.Fatalf("Candidates = %d, want 4", stats.Candidates)
	}
}

func TestSMJBasicAND(t *testing.T) {
	l1 := plist.ScoreList{e(1, 0.5), e(2, 0.4), e(3, 0.1)}
	l2 := plist.ScoreList{e(2, 0.9), e(4, 0.3), e(1, 0.2)}
	got, _, err := runSMJ(idCursorsOf(l1, l2), SMJOptions{K: 5, Op: corpus.OpAND})
	if err != nil {
		t.Fatal(err)
	}
	// Only 1 and 2 in both lists; 2 scores log(.4)+log(.9) > 1's
	// log(.5)+log(.2).
	if !reflect.DeepEqual(idsOfResults(got), []phrasedict.PhraseID{2, 1}) {
		t.Fatalf("SMJ AND = %v", idsOfResults(got))
	}
	want := math.Log(0.4) + math.Log(0.9)
	if math.Abs(got[0].Score-want) > 1e-12 {
		t.Fatalf("score = %v, want %v", got[0].Score, want)
	}
}

func TestSMJSingleList(t *testing.T) {
	l := plist.ScoreList{e(9, 0.9), e(1, 0.5), e(3, 0.2)}
	got, _, err := runSMJ(idCursorsOf(l), SMJOptions{K: 2, Op: corpus.OpOR})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idsOfResults(got), []phrasedict.PhraseID{9, 1}) {
		t.Fatalf("SMJ single = %v", idsOfResults(got))
	}
}

func TestSMJEmptyLists(t *testing.T) {
	got, stats, err := runSMJ(idCursorsOf(nil, nil), SMJOptions{K: 3, Op: corpus.OpOR})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || stats.EntriesRead != 0 {
		t.Fatalf("empty SMJ: %v, %+v", got, stats)
	}
}

func TestSMJMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		r := 1 + rng.Intn(5)
		lists := randomLists(rng, r, 60, 50)
		op := corpus.OpOR
		if trial%2 == 0 {
			op = corpus.OpAND
		}
		k := 1 + rng.Intn(8)
		want := naiveTopK(lists, op, k)
		got, _, err := runSMJ(idCursorsOf(lists...), SMJOptions{K: k, Op: op})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(idsOfResults(got), idsOfResults(want)) {
			t.Fatalf("trial %d (op=%v k=%d): SMJ = %v, want %v",
				trial, op, k, idsOfResults(got), idsOfResults(want))
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i].Score) > 1e-12 {
				t.Fatalf("trial %d: score[%d] = %v, want %v", trial, i, got[i].Score, want[i].Score)
			}
		}
	}
}

// SMJ and NRA must return identical results on identical (full) lists —
// they differ only in list organization and traversal (Section 5.3: "these
// give exactly the same results for any query-dataset combination").
func TestSMJAgreesWithNRA(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 80; trial++ {
		lists := randomLists(rng, 2+rng.Intn(4), 70, 60)
		op := corpus.OpOR
		if trial%2 == 0 {
			op = corpus.OpAND
		}
		k := 1 + rng.Intn(6)
		smj, _, err := runSMJ(idCursorsOf(lists...), SMJOptions{K: k, Op: op})
		if err != nil {
			t.Fatal(err)
		}
		nra, _, err := NRA(cursorsOf(lists...), NRAOptions{K: k, Op: op})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(idsOfResults(smj), idsOfResults(nra)) {
			t.Fatalf("trial %d: SMJ %v != NRA %v", trial, idsOfResults(smj), idsOfResults(nra))
		}
	}
}

// The same holds on truncated partial lists: NRA consuming a fraction of
// the score-ordered lists sees exactly the entries SMJ gets in ID order.
func TestSMJAgreesWithNRAOnPartialLists(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 60; trial++ {
		lists := randomLists(rng, 2+rng.Intn(3), 70, 60)
		op := corpus.OpOR
		if trial%2 == 0 {
			op = corpus.OpAND
		}
		frac := 0.2 + rng.Float64()*0.6
		k := 1 + rng.Intn(6)

		trunc := make([]plist.ScoreList, len(lists))
		for i, l := range lists {
			trunc[i] = l.Truncate(frac)
		}
		smj, _, err := runSMJ(idCursorsOf(trunc...), SMJOptions{K: k, Op: op})
		if err != nil {
			t.Fatal(err)
		}
		// NRA reads ceil(frac*len) from the full lists = the same
		// truncated prefixes. Early stopping may stop it sooner but
		// the result set must agree since both are exact over the
		// entries considered.
		nra, _, err := NRA(cursorsOf(lists...), NRAOptions{K: k, Op: op, Fraction: frac})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(idsOfResults(smj), idsOfResults(nra)) {
			t.Fatalf("trial %d (op=%v frac=%.2f): SMJ %v != NRA %v",
				trial, op, frac, idsOfResults(smj), idsOfResults(nra))
		}
	}
}

func TestSMJTieBreaking(t *testing.T) {
	// Phrases 5 and 3 tie on score; 3 must rank first (ascending ID).
	l := plist.ScoreList{e(5, 0.5), e(3, 0.5), e(1, 0.1)}
	got, _, err := runSMJ(idCursorsOf(l), SMJOptions{K: 3, Op: corpus.OpOR})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idsOfResults(got), []phrasedict.PhraseID{3, 5, 1}) {
		t.Fatalf("tie order = %v", idsOfResults(got))
	}
}

func TestSMJSecondOrderORKnownValues(t *testing.T) {
	// Phrase 1 on both lists with P = 0.5 and 0.3:
	//   first-order  S1 = 0.8
	//   second-order S2 = 0.8 - 0.5*0.3 = 0.65
	l1 := plist.ScoreList{e(1, 0.5)}
	l2 := plist.ScoreList{e(1, 0.3)}
	first, _, err := runSMJ(idCursorsOf(l1, l2), SMJOptions{K: 1, Op: corpus.OpOR})
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := runSMJ(idCursorsOf(l1, l2), SMJOptions{K: 1, Op: corpus.OpOR, SecondOrderOR: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first[0].Score-0.8) > 1e-12 {
		t.Fatalf("first-order = %v, want 0.8", first[0].Score)
	}
	if math.Abs(second[0].Score-0.65) > 1e-12 {
		t.Fatalf("second-order = %v, want 0.65", second[0].Score)
	}
}

func TestSMJSecondOrderThreeLists(t *testing.T) {
	// P = {0.5, 0.4, 0.2}: S2 = 1.1 - (0.5*0.4 + 0.5*0.2 + 0.4*0.2) = 0.72.
	l1 := plist.ScoreList{e(7, 0.5)}
	l2 := plist.ScoreList{e(7, 0.4)}
	l3 := plist.ScoreList{e(7, 0.2)}
	got, _, err := runSMJ(idCursorsOf(l1, l2, l3), SMJOptions{K: 1, Op: corpus.OpOR, SecondOrderOR: true})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.1 - (0.5*0.4 + 0.5*0.2 + 0.4*0.2)
	if math.Abs(got[0].Score-want) > 1e-12 {
		t.Fatalf("S2 = %v, want %v", got[0].Score, want)
	}
}

// Property: the second-order OR score never exceeds the first-order score
// (the correction subtracts non-negative pairwise products), and the two
// agree on single-list queries.
func TestSMJSecondOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 60; trial++ {
		lists := randomLists(rng, 2+rng.Intn(4), 50, 40)
		const bigK = 1000
		s1, _, err := runSMJ(idCursorsOf(lists...), SMJOptions{K: bigK, Op: corpus.OpOR})
		if err != nil {
			t.Fatal(err)
		}
		s2, _, err := runSMJ(idCursorsOf(lists...), SMJOptions{K: bigK, Op: corpus.OpOR, SecondOrderOR: true})
		if err != nil {
			t.Fatal(err)
		}
		first := map[phrasedict.PhraseID]float64{}
		for _, r := range s1 {
			first[r.Phrase] = r.Score
		}
		for _, r := range s2 {
			f, ok := first[r.Phrase]
			if !ok {
				t.Fatalf("trial %d: phrase %d only in second-order results", trial, r.Phrase)
			}
			if r.Score > f+1e-12 {
				t.Fatalf("trial %d: S2 %v > S1 %v", trial, r.Score, f)
			}
		}
	}
	// Single list: no pairs, S2 == S1.
	single := randomLists(rand.New(rand.NewSource(7)), 1, 30, 25)
	a, _, _ := runSMJ(idCursorsOf(single...), SMJOptions{K: 50, Op: corpus.OpOR})
	b, _, _ := runSMJ(idCursorsOf(single...), SMJOptions{K: 50, Op: corpus.OpOR, SecondOrderOR: true})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("single-list S1 and S2 disagree")
	}
}
