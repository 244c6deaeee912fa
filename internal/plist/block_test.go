package plist

import (
	"math"
	"math/rand"
	"testing"

	"phrasemine/internal/phrasedict"
)

// randomIDList generates a strictly increasing ID-ordered list with probs
// drawn from a small ratio pool (the shape real lists have).
func randomIDList(rng *rand.Rand, n int) IDList {
	out := make(IDList, 0, n)
	id := uint32(0)
	for i := 0; i < n; i++ {
		id += uint32(1 + rng.Intn(50))
		den := 1 + rng.Intn(20)
		num := 1 + rng.Intn(den)
		out = append(out, Entry{Phrase: phrasedict.PhraseID(id), Prob: float64(num) / float64(den)})
	}
	return out
}

// randomScoreList generates a canonical score-ordered list.
func randomScoreList(rng *rand.Rand, n int) ScoreList {
	ids := rng.Perm(n * 3)
	out := make(ScoreList, 0, n)
	for i := 0; i < n; i++ {
		den := 1 + rng.Intn(20)
		num := 1 + rng.Intn(den)
		out = append(out, Entry{Phrase: phrasedict.PhraseID(ids[i]), Prob: float64(num) / float64(den)})
	}
	SortScoreOrder(out)
	return out
}

func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Phrase != b[i].Phrase || math.Float64bits(a[i].Prob) != math.Float64bits(b[i].Prob) {
			return false
		}
	}
	return true
}

func roundTrip(t *testing.T, entries []Entry, ord Ordering) BlockList {
	t.Helper()
	data, err := AppendBlockList(nil, entries, ord)
	if err != nil {
		t.Fatalf("AppendBlockList: %v", err)
	}
	l, err := NewBlockList(data, len(entries), ord)
	if err != nil {
		t.Fatalf("NewBlockList: %v", err)
	}
	got, err := l.DecodeAll(nil)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if !entriesEqual(got, entries) {
		t.Fatalf("round trip mismatch: %d entries in, %d out", len(entries), len(got))
	}
	return l
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, BlockLen - 1, BlockLen, BlockLen + 1, 3*BlockLen + 17, 1000} {
		idl := randomIDList(rng, n)
		l := roundTrip(t, idl, OrderID)
		if l.Len() != n {
			t.Fatalf("Len = %d, want %d", l.Len(), n)
		}
		sl := randomScoreList(rng, n)
		roundTrip(t, sl, OrderScore)
	}
}

func TestBlockCursorNextMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, ord := range []Ordering{OrderID, OrderScore} {
		var entries []Entry
		if ord == OrderID {
			entries = randomIDList(rng, 777)
		} else {
			entries = randomScoreList(rng, 777)
		}
		l := roundTrip(t, entries, ord)
		c := NewBlockCursor(l)
		if c.Len() != len(entries) {
			t.Fatalf("cursor Len = %d, want %d", c.Len(), len(entries))
		}
		for i, want := range entries {
			e, ok := c.Next()
			if !ok {
				t.Fatalf("%v: Next exhausted at %d, want %d entries", ord, i, len(entries))
			}
			if e != want {
				t.Fatalf("%v: entry %d = %+v, want %+v", ord, i, e, want)
			}
			if c.Pos() != i+1 {
				t.Fatalf("%v: Pos = %d after %d entries", ord, c.Pos(), i+1)
			}
		}
		if _, ok := c.Next(); ok {
			t.Fatalf("%v: Next returned entry past the end", ord)
		}
		if c.Err() != nil {
			t.Fatalf("%v: Err = %v", ord, c.Err())
		}
	}
}

// skipToLinear is the reference SkipTo: consume entries until one's phrase
// ID reaches id.
func skipToLinear(c Cursor, id phrasedict.PhraseID) (Entry, bool) {
	for {
		e, ok := c.Next()
		if !ok {
			return Entry{}, false
		}
		if e.Phrase >= id {
			return e, true
		}
	}
}

func TestBlockCursorSkipToMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := randomIDList(rng, 1500)
	l := roundTrip(t, entries, OrderID)
	maxID := uint32(entries[len(entries)-1].Phrase)

	for trial := 0; trial < 200; trial++ {
		fast := NewBlockCursor(l)
		slow := NewMemCursor(entries)
		// A mix of consumed-prefix states and probe targets, including
		// past-the-end and backward (already-passed) targets.
		for probes := 0; probes < 8; probes++ {
			id := phrasedict.PhraseID(rng.Intn(int(maxID) + 100))
			fe, fok := fast.SkipTo(id)
			se, sok := skipToLinear(slow, id)
			if fok != sok || (fok && fe != se) {
				t.Fatalf("trial %d probe %d id %d: SkipTo = (%+v,%v), linear = (%+v,%v)",
					trial, probes, id, fe, fok, se, sok)
			}
			if fast.Err() != nil {
				t.Fatalf("SkipTo error: %v", fast.Err())
			}
			if !fok {
				break
			}
		}
	}
}

func TestBlockCursorSkipToInterleavedWithNext(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entries := randomIDList(rng, 900)
	l := roundTrip(t, entries, OrderID)
	fast := NewBlockCursor(l)
	slow := NewMemCursor(entries)
	for step := 0; ; step++ {
		if step%3 == 2 {
			id := phrasedict.PhraseID(rng.Intn(int(entries[len(entries)-1].Phrase) + 10))
			fe, fok := fast.SkipTo(id)
			se, sok := skipToLinear(slow, id)
			if fok != sok || (fok && fe != se) {
				t.Fatalf("step %d SkipTo(%d) = (%+v,%v), linear = (%+v,%v)", step, id, fe, fok, se, sok)
			}
			if !fok {
				break
			}
		} else {
			fe, fok := fast.Next()
			se, sok := slow.Next()
			if fok != sok || (fok && fe != se) {
				t.Fatalf("step %d Next = (%+v,%v), ref = (%+v,%v)", step, fe, fok, se, sok)
			}
			if !fok {
				break
			}
		}
	}
}

func TestSkipToRejectsScoreOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := roundTrip(t, randomScoreList(rng, 50), OrderScore)
	c := NewBlockCursor(l)
	if _, ok := c.SkipTo(1); ok || c.Err() == nil {
		t.Fatal("SkipTo on a score-ordered list must fail")
	}
}

func TestBlockSkipEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	entries := randomIDList(rng, 5*BlockLen+9)
	l := roundTrip(t, entries, OrderID)
	for b := 0; b < l.NumBlocks(); b++ {
		first, maxProb := l.Skip(b)
		lo := b * BlockLen
		hi := lo + l.BlockEntries(b)
		if first != entries[lo].Phrase {
			t.Fatalf("block %d firstID = %d, want %d", b, first, entries[lo].Phrase)
		}
		want := entries[lo].Prob
		for _, e := range entries[lo:hi] {
			if e.Prob > want {
				want = e.Prob
			}
		}
		if maxProb != want {
			t.Fatalf("block %d maxProb = %v, want %v", b, maxProb, want)
		}
	}
}

func TestAppendBlockListRejectsUnsortedIDs(t *testing.T) {
	bad := IDList{{Phrase: 5, Prob: 0.5}, {Phrase: 5, Prob: 0.25}}
	if _, err := AppendBlockList(nil, bad, OrderID); err == nil {
		t.Fatal("duplicate IDs must be rejected for ID ordering")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := randomIDList(rng, 300)
	data, err := AppendBlockList(nil, entries, OrderID)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix must fail NewBlockList or DecodeAll, not
	// panic or silently succeed with wrong data.
	for cut := 0; cut < len(data); cut += 7 {
		l, err := NewBlockList(data[:cut], len(entries), OrderID)
		if err != nil {
			continue
		}
		got, err := l.DecodeAll(nil)
		if err == nil && !entriesEqual(got, entries) {
			t.Fatalf("truncation to %d bytes decoded %d wrong entries without error", cut, len(got))
		}
	}
}

func TestBlockSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	lists := map[string]ScoreList{
		"alpha": randomScoreList(rng, 400),
		"beta":  randomScoreList(rng, 1),
		"gamma": randomScoreList(rng, 2*BlockLen),
		"empty": {},
	}
	bs, err := BuildBlockSetCodec(lists, CodecAuto)
	if err != nil {
		t.Fatal(err)
	}
	data := bs.AppendTo(nil)
	// Determinism: rebuilding and re-serializing yields identical bytes.
	bs2, err := BuildBlockSetCodec(lists, CodecAuto)
	if err != nil {
		t.Fatal(err)
	}
	if string(bs2.AppendTo(nil)) != string(data) {
		t.Fatal("BlockSet serialization is not deterministic")
	}
	opened, err := OpenBlockSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Ordering() != OrderScore {
		t.Fatalf("ordering = %v", opened.Ordering())
	}
	if opened.TotalEntries() != bs.TotalEntries() {
		t.Fatalf("TotalEntries = %d, want %d", opened.TotalEntries(), bs.TotalEntries())
	}
	decoded, err := opened.DecodeAllScoreLists()
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(lists) {
		t.Fatalf("%d lists decoded, want %d", len(decoded), len(lists))
	}
	for w, want := range lists {
		if !entriesEqual(decoded[w], want) {
			t.Fatalf("list %q mismatch after round trip", w)
		}
		if opened.NumEntries(w) != len(want) {
			t.Fatalf("NumEntries(%q) = %d, want %d", w, opened.NumEntries(w), len(want))
		}
	}
	if _, err := opened.List("missing"); err != nil {
		t.Fatalf("missing word: %v", err)
	}
	if n := opened.NumEntries("missing"); n != 0 {
		t.Fatalf("NumEntries(missing) = %d", n)
	}
}

func TestOpenBlockSetRejectsOverflowingExtent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	bs, err := BuildBlockSetCodec(map[string]ScoreList{"w": randomScoreList(rng, 10)}, CodecAuto)
	if err != nil {
		t.Fatal(err)
	}
	data := bs.AppendTo(nil)
	// Corrupt the directory entry's uint64 offset so off+size wraps: the
	// open must error, not store a wrapped extent that panics at List().
	pos := blockSetHeaderSize
	nl := int(data[pos]) | int(data[pos+1])<<8
	off := pos + 2 + nl
	for i := 0; i < 8; i++ {
		data[off+i] = 0xFF
	}
	if _, err := OpenBlockSet(data); err == nil {
		t.Fatal("overflowing directory extent accepted")
	}
}

func TestBlockCompressionRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lists := map[string]ScoreList{}
	for _, w := range []string{"a", "b", "c", "d"} {
		lists[w] = randomScoreList(rng, 5000)
	}
	bs, err := BuildBlockSetCodec(lists, CodecAuto)
	if err != nil {
		t.Fatal(err)
	}
	raw := SizeBytes(bs.TotalEntries())
	if bs.SizeBytes()*2 > raw {
		t.Fatalf("compressed %d bytes vs raw %d: less than 2x compression", bs.SizeBytes(), raw)
	}
}
