package corpus

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func ids(xs ...DocID) []DocID { return xs }

func TestIntersect2Basic(t *testing.T) {
	got := Intersect2Into(nil, ids(1, 3, 5, 7), ids(3, 4, 5, 8))
	if !reflect.DeepEqual(got, ids(3, 5)) {
		t.Fatalf("Intersect2 = %v", got)
	}
}

func TestIntersect2Empty(t *testing.T) {
	if got := Intersect2Into(nil, nil, ids(1, 2)); len(got) != 0 {
		t.Fatalf("Intersect2Into(nil, nil, ...) = %v", got)
	}
	if got := Intersect2Into(nil, ids(1, 2), ids(3, 4)); len(got) != 0 {
		t.Fatalf("disjoint Intersect2 = %v", got)
	}
}

func TestIntersect2Galloping(t *testing.T) {
	// Force the galloping path: |b| >= 8|a|.
	long := make([]DocID, 1000)
	for i := range long {
		long[i] = DocID(i * 2) // evens
	}
	short := ids(0, 7, 500, 998, 1998, 5000)
	got := Intersect2Into(nil, short, long)
	want := ids(0, 500, 998, 1998)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gallop Intersect2 = %v, want %v", got, want)
	}
	// Symmetry.
	got2 := Intersect2Into(nil, long, short)
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("gallop Intersect2 (swapped) = %v, want %v", got2, want)
	}
}

func TestIntersectCount2(t *testing.T) {
	if n := IntersectCount2(ids(1, 2, 3), ids(2, 3, 4)); n != 2 {
		t.Fatalf("IntersectCount2 = %d, want 2", n)
	}
	if n := IntersectCount2(nil, ids(1)); n != 0 {
		t.Fatalf("IntersectCount2(nil,...) = %d", n)
	}
}

func TestKWayIntersect(t *testing.T) {
	got := IntersectInto(nil, ids(1, 2, 3, 4, 9), ids(2, 3, 9), ids(0, 2, 9))
	if !reflect.DeepEqual(got, ids(2, 9)) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := IntersectInto(nil); got != nil {
		t.Fatalf("IntersectInto(nil) = %v, want nil", got)
	}
	one := IntersectInto(nil, ids(5, 6))
	if !reflect.DeepEqual(one, ids(5, 6)) {
		t.Fatalf("IntersectInto(nil, single) = %v", one)
	}
}

func TestKWayIntersectShortCircuit(t *testing.T) {
	got := IntersectInto(nil, ids(1), ids(2), ids(1, 2, 3))
	if len(got) != 0 {
		t.Fatalf("Intersect = %v, want empty", got)
	}
}

func TestUnion2(t *testing.T) {
	got := Union2Into(nil, ids(1, 3, 5), ids(2, 3, 6))
	if !reflect.DeepEqual(got, ids(1, 2, 3, 5, 6)) {
		t.Fatalf("Union2 = %v", got)
	}
	if got := Union2Into(nil, nil, nil); len(got) != 0 {
		t.Fatalf("Union2Into(nil, nil,nil) = %v", got)
	}
}

func TestKWayUnion(t *testing.T) {
	got := UnionInto(nil, ids(1, 4), ids(2, 4, 8), ids(0, 8), nil)
	if !reflect.DeepEqual(got, ids(0, 1, 2, 4, 8)) {
		t.Fatalf("Union = %v", got)
	}
	if got := UnionInto(nil); got != nil {
		t.Fatalf("UnionInto(nil) = %v", got)
	}
}

func TestIntoVariantsAppendSemantics(t *testing.T) {
	// *Into appends after existing content and reuses capacity.
	dst := make([]DocID, 0, 16)
	dst = append(dst, 0)
	got := Intersect2Into(dst, ids(1, 3, 5), ids(3, 5, 7))
	if !reflect.DeepEqual(got, ids(0, 3, 5)) {
		t.Fatalf("Intersect2Into = %v", got)
	}
	if &got[0] != &dst[0] {
		t.Fatal("Intersect2Into reallocated despite sufficient capacity")
	}
	got = Union2Into(got[:0], ids(1, 3), ids(2, 3))
	if !reflect.DeepEqual(got, ids(1, 2, 3)) {
		t.Fatalf("Union2Into = %v", got)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("Union2Into reallocated despite sufficient capacity")
	}
}

func TestIntoVariantsGallopPath(t *testing.T) {
	long := make([]DocID, 800)
	for i := range long {
		long[i] = DocID(i * 3)
	}
	short := ids(0, 3, 100, 300, 2397)
	buf := make([]DocID, 0, 8)
	got := Intersect2Into(buf, short, long)
	want := ids(0, 3, 300, 2397)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gallop Intersect2Into = %v, want %v", got, want)
	}
}

func TestKWayIntoMatchesKWay(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		lists := make([][]DocID, k)
		for i := range lists {
			lists[i] = randomSortedList(rng, 30, 50)
		}
		buf := make([]DocID, 0, 4)
		if got, want := IntersectInto(buf, lists...), IntersectInto(nil, lists...); !reflect.DeepEqual(setOf(got), setOf(want)) {
			t.Fatalf("trial %d: IntersectInto = %v, want %v", trial, got, want)
		}
		if got, want := UnionInto(buf[:0], lists...), UnionInto(nil, lists...); !reflect.DeepEqual(setOf(got), setOf(want)) {
			t.Fatalf("trial %d: UnionInto = %v, want %v", trial, got, want)
		}
	}
}

func TestSelectCountMatchesSelect(t *testing.T) {
	c := New()
	docs := [][]string{
		{"a", "b", "c"},
		{"b", "c"},
		{"a", "c", "d"},
		{"d"},
		{"a", "b", "c", "d"},
	}
	for _, toks := range docs {
		c.Add(Document{Tokens: toks})
	}
	ix := mustInverted(c)
	queries := []Query{
		NewQuery(OpAND, "a"),
		NewQuery(OpOR, "a"),
		NewQuery(OpAND, "a", "b"),
		NewQuery(OpOR, "a", "b"),
		NewQuery(OpAND, "a", "b", "c"),
		NewQuery(OpOR, "a", "b", "d"),
		NewQuery(OpAND, "a", "zzz"),
	}
	for _, q := range queries {
		want, err := ix.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.SelectCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != len(want) {
			t.Fatalf("SelectCount(%v) = %d, want %d", q, got, len(want))
		}
	}
}

// randomSortedList produces a strictly increasing DocID list.
func randomSortedList(rng *rand.Rand, maxLen, universe int) []DocID {
	n := rng.Intn(maxLen + 1)
	seen := make(map[DocID]struct{}, n)
	for len(seen) < n {
		seen[DocID(rng.Intn(universe))] = struct{}{}
	}
	out := make([]DocID, 0, n)
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func setOf(list []DocID) map[DocID]struct{} {
	m := make(map[DocID]struct{}, len(list))
	for _, id := range list {
		m[id] = struct{}{}
	}
	return m
}

// Property: k-way Intersect/Union agree with map-based reference semantics
// on random inputs, and outputs are strictly sorted.
func TestSetAlgebraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(4)
		lists := make([][]DocID, k)
		for i := range lists {
			lists[i] = randomSortedList(rng, 40, 60)
		}

		wantInter := setOf(lists[0])
		for _, l := range lists[1:] {
			s := setOf(l)
			for id := range wantInter {
				if _, ok := s[id]; !ok {
					delete(wantInter, id)
				}
			}
		}
		wantUnion := map[DocID]struct{}{}
		for _, l := range lists {
			for _, id := range l {
				wantUnion[id] = struct{}{}
			}
		}

		gotInter := IntersectInto(nil, lists...)
		gotUnion := UnionInto(nil, lists...)

		if !reflect.DeepEqual(setOf(gotInter), wantInter) && !(len(gotInter) == 0 && len(wantInter) == 0) {
			t.Fatalf("trial %d: Intersect mismatch: got %v", trial, gotInter)
		}
		if !reflect.DeepEqual(setOf(gotUnion), wantUnion) && !(len(gotUnion) == 0 && len(wantUnion) == 0) {
			t.Fatalf("trial %d: Union mismatch: got %v", trial, gotUnion)
		}
		for i := 1; i < len(gotInter); i++ {
			if gotInter[i-1] >= gotInter[i] {
				t.Fatalf("Intersect output not strictly sorted: %v", gotInter)
			}
		}
		for i := 1; i < len(gotUnion); i++ {
			if gotUnion[i-1] >= gotUnion[i] {
				t.Fatalf("Union output not strictly sorted: %v", gotUnion)
			}
		}
	}
}

// Property: IntersectCount2 equals len(Intersect2).
func TestIntersectCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seedA, seedB uint16) bool {
		a := randomSortedList(rng, 50, 80)
		b := randomSortedList(rng, 50, 80)
		return IntersectCount2(a, b) == len(Intersect2Into(nil, a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(100)
	if b.Has(5) || b.Count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(5)
	b.Set(63)
	b.Set(64)
	b.Set(99)
	b.Set(5) // duplicate
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	for _, id := range []DocID{5, 63, 64, 99} {
		if !b.Has(id) {
			t.Fatalf("Has(%d) = false", id)
		}
	}
	if b.Has(6) {
		t.Fatal("Has(6) = true")
	}
	b.Clear(63)
	if b.Has(63) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
	b.Clear(63) // double clear is a no-op
	if b.Count() != 3 {
		t.Fatal("double Clear changed count")
	}
}

func TestBitmapOutOfUniverse(t *testing.T) {
	b := NewBitmap(10)
	if b.Has(1000) {
		t.Fatal("Has beyond universe should be false")
	}
}

func TestBitmapFromListAndIntersectCount(t *testing.T) {
	b := BitmapFromList(ids(2, 4, 6), 10)
	if n := b.IntersectCountList(ids(1, 2, 3, 4)); n != 2 {
		t.Fatalf("IntersectCountList = %d, want 2", n)
	}
}

// Property: bitmap membership agrees with list membership.
func TestBitmapMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		list := randomSortedList(rng, 64, 256)
		b := BitmapFromList(list, 256)
		set := setOf(list)
		if b.Count() != len(set) {
			t.Fatalf("Count = %d, want %d", b.Count(), len(set))
		}
		for id := DocID(0); id < 256; id++ {
			_, want := set[id]
			if b.Has(id) != want {
				t.Fatalf("Has(%d) = %v, want %v", id, b.Has(id), want)
			}
		}
	}
}
