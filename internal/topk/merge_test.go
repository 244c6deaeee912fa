package topk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
)

// drain pulls every entry from the merger in order.
func drain(t *testing.T, m *loserTree) []plist.Entry {
	t.Helper()
	var out []plist.Entry
	for {
		e, _, ok := m.next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	if err := m.err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// randomIDLists builds r ID-ordered lists over a universe.
func randomIDLists(rng *rand.Rand, r, universe, maxLen int) []plist.IDList {
	out := make([]plist.IDList, r)
	for i := range out {
		n := rng.Intn(maxLen + 1)
		if n > universe {
			n = universe
		}
		perm := rng.Perm(universe)[:n]
		sort.Ints(perm)
		l := make(plist.IDList, n)
		for j, id := range perm {
			l[j] = e(uint32(id), rng.Float64()*0.99+0.01)
		}
		out[i] = l
	}
	return out
}

// treeOver seats a fresh loser tree over memory cursors on the lists.
func treeOver(lists []plist.IDList) *loserTree {
	cs := make([]plist.Cursor, len(lists))
	for i, l := range lists {
		cs[i] = plist.NewMemCursor(l)
	}
	return new(loserTree).reset(cs)
}

// referenceMerge is the specification the loser tree is held to: every
// entry of every list, stably sorted by phrase ID, so equal IDs keep list
// order.
func referenceMerge(lists []plist.IDList) []plist.Entry {
	var out []plist.Entry
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Phrase < out[j].Phrase })
	return out
}

func TestLoserTreeMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 120; trial++ {
		lists := randomIDLists(rng, 1+rng.Intn(6), 80, 50)
		got, want := drain(t, treeOver(lists)), referenceMerge(lists)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: loser tree and sort-based reference disagree\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestMergerSingleList(t *testing.T) {
	l := plist.IDList{e(1, 0.9), e(5, 0.5), e(9, 0.1)}
	got := drain(t, treeOver([]plist.IDList{l}))
	if !reflect.DeepEqual(got, []plist.Entry(l)) {
		t.Fatalf("drained %v, want %v", got, l)
	}
}

func TestMergerAllEmpty(t *testing.T) {
	if got := drain(t, treeOver([]plist.IDList{nil, nil, nil})); len(got) != 0 {
		t.Fatalf("drained %d from empty lists", len(got))
	}
}

func TestMergerDuplicateIDsAcrossLists(t *testing.T) {
	// The same phrase on all lists must come out adjacently (grouped).
	l1 := plist.IDList{e(4, 0.1), e(7, 0.2)}
	l2 := plist.IDList{e(4, 0.3), e(9, 0.4)}
	l3 := plist.IDList{e(4, 0.5)}
	got := drain(t, treeOver([]plist.IDList{l1, l2, l3}))
	wantIDs := []phrasedict.PhraseID{4, 4, 4, 7, 9}
	for i, w := range wantIDs {
		if got[i].Phrase != w {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestMergerStableByListIndex(t *testing.T) {
	// Equal IDs must be emitted in list order for determinism.
	l1 := plist.IDList{e(4, 0.111)}
	l2 := plist.IDList{e(4, 0.222)}
	got := drain(t, treeOver([]plist.IDList{l1, l2}))
	if got[0].Prob != 0.111 || got[1].Prob != 0.222 {
		t.Fatalf("tie not broken by list index: %v", got)
	}
}
