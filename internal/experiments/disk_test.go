package experiments

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"phrasemine/internal/corpus"
	"phrasemine/internal/diskio"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
	"phrasemine/internal/topk"
)

func entry(id uint32, prob float64) plist.Entry {
	return plist.Entry{Phrase: phrasedict.PhraseID(id), Prob: prob}
}

func testLists() map[string]plist.ScoreList {
	return map[string]plist.ScoreList{
		"trade":    {entry(3, 0.9), entry(1, 0.5), entry(2, 0.5)},
		"reserves": {entry(1, 1.0), entry(7, 0.25)},
		"empty":    nil,
	}
}

// mustListFile writes lists as a list file held in memory and opens it.
func mustListFile(t *testing.T, lists map[string]plist.ScoreList) (*listFile, []byte) {
	t.Helper()
	var buf bytes.Buffer
	n, err := writeListFile(&buf, lists)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("writeListFile reported %d bytes, wrote %d", n, buf.Len())
	}
	lf, err := openListFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return lf, buf.Bytes()
}

// drain reads a cursor to its end.
func drain(t *testing.T, c plist.Cursor) []plist.Entry {
	t.Helper()
	var got []plist.Entry
	for {
		e, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, e)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestEntryCodecRoundTrip(t *testing.T) {
	var buf [plist.EntrySize]byte
	for _, e := range []plist.Entry{
		entry(0, 1.0),
		entry(1134, 0.26),
		entry(4294967295, 1e-12),
		entry(7, 0.3333333333333333),
	} {
		encodeEntry(buf[:], e)
		if got := decodeEntry(buf[:]); got != e {
			t.Fatalf("round trip %v -> %v", e, got)
		}
	}
}

func TestEntryCodecProperty(t *testing.T) {
	f := func(id uint32, probBits uint64) bool {
		prob := math.Float64frombits(probBits)
		e := plist.Entry{Phrase: phrasedict.PhraseID(id), Prob: prob}
		var buf [plist.EntrySize]byte
		encodeEntry(buf[:], e)
		got := decodeEntry(buf[:])
		if math.IsNaN(prob) {
			return got.Phrase == e.Phrase && math.IsNaN(got.Prob)
		}
		return got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestListFileRoundTrip(t *testing.T) {
	lists := testLists()
	lf, _ := mustListFile(t, lists)
	for word, want := range lists {
		if _, ok := lf.dir[word]; !ok {
			t.Fatalf("directory lacks %q", word)
		}
		c := lf.cursor(word)
		if c.Len() != len(want) {
			t.Fatalf("cursor(%q).Len = %d, want %d", word, c.Len(), len(want))
		}
		if got := drain(t, c); !reflect.DeepEqual(plist.ScoreList(got), want) {
			t.Fatalf("list %q = %v, want %v", word, got, want)
		}
	}
}

func TestListFileWordsSorted(t *testing.T) {
	lf, data := mustListFile(t, testLists())
	words := []string{"empty", "reserves", "trade"}
	for i := 1; i < len(words); i++ {
		if prev, cur := lf.dir[words[i-1]], lf.dir[words[i]]; prev.offset+plist.SizeBytes(prev.count) != cur.offset {
			t.Fatalf("list %q at %d does not follow %q at %d", words[i], cur.offset, words[i-1], prev.offset)
		}
	}
	// Sorted words make the bytes independent of map iteration order.
	for i := 0; i < 5; i++ {
		if _, again := mustListFile(t, testLists()); !bytes.Equal(again, data) {
			t.Fatal("list file bytes are not deterministic")
		}
	}
}

func TestOpenListFileRejectsGarbage(t *testing.T) {
	if _, err := openListFile(bytes.NewReader([]byte("garbage data that is long enough"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := openListFile(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	_, data := mustListFile(t, testLists())
	if _, err := openListFile(bytes.NewReader(data[:listFileHeaderSize+5])); err == nil {
		t.Fatal("truncated directory accepted")
	}
}

// TestListFileOrderingByte checks that the writer marks its lists as
// score-ordered and that the reader refuses any other ordering byte.
func TestListFileOrderingByte(t *testing.T) {
	_, data := mustListFile(t, testLists())
	if ord := plist.Ordering(data[8]); ord != plist.OrderScore {
		t.Fatalf("ordering byte = %v, want score", ord)
	}
	idOrdered := append([]byte(nil), data...)
	idOrdered[8] = byte(plist.OrderID)
	if _, err := openListFile(bytes.NewReader(idOrdered)); err == nil {
		t.Fatal("ID-ordered list file accepted")
	}
}

// TestSimDiskIndexRejectsIDOrdering checks that a disk-resident list file
// of a real index marked ID-ordered is refused on open, so NRA never runs
// over lists that are not in score order.
func TestSimDiskIndexRejectsIDOrdering(t *testing.T) {
	ds := loadTest(t, Reuters)
	lists, err := ds.Index.ScoreLists()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := writeListFile(&buf, lists); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] = byte(plist.OrderID)
	disk, err := diskio.NewDisk(diskio.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.CreateFile("lists.idx", data); err != nil {
		t.Fatal(err)
	}
	f, err := disk.File("lists.idx")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openListFile(f); err == nil {
		t.Fatal("ID-ordered disk index accepted")
	}
}

func TestFileCursorIteration(t *testing.T) {
	lists := testLists()
	lf, _ := mustListFile(t, lists)
	cur := lf.cursor("trade")
	if cur.Len() != 3 {
		t.Fatalf("Len = %d", cur.Len())
	}
	if got := drain(t, cur); !reflect.DeepEqual(plist.ScoreList(got), lists["trade"]) {
		t.Fatalf("cursor read %v", got)
	}
	if cur.Pos() != 3 {
		t.Fatalf("Pos = %d", cur.Pos())
	}
	if _, ok := cur.Next(); ok {
		t.Fatal("Next after end returned ok")
	}
}

func TestFileCursorMissingWordIsEmpty(t *testing.T) {
	lf, _ := mustListFile(t, testLists())
	cur := lf.cursor("no-such-word")
	if cur.Len() != 0 {
		t.Fatalf("missing word Len = %d", cur.Len())
	}
	if _, ok := cur.Next(); ok {
		t.Fatal("missing word cursor yielded an entry")
	}
}

func TestListFileOnSimulatedDisk(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeListFile(&buf, testLists()); err != nil {
		t.Fatal(err)
	}
	disk, err := diskio.NewDisk(diskio.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.CreateFile("index", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	f, err := disk.File("index")
	if err != nil {
		t.Fatal(err)
	}
	lf, err := openListFile(f)
	if err != nil {
		t.Fatal(err)
	}
	// Exclude directory loading from query stats and force the page
	// holding the lists out of cache so the cursor pays real (simulated)
	// IO.
	disk.DropCaches()
	disk.ResetStats()
	if n := len(drain(t, lf.cursor("trade"))); n != 3 {
		t.Fatalf("read %d entries", n)
	}
	s := disk.Stats()
	if s.Reads != 3 {
		t.Fatalf("disk Reads = %d, want 3 (one per entry)", s.Reads)
	}
	if s.IOTimeMS <= 0 {
		t.Fatal("no IO time accounted")
	}
}

func TestListFileRoundTripLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lists := make(map[string]plist.ScoreList)
	for _, w := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		n := rng.Intn(5000)
		l := make([]plist.Entry, 0, n)
		seen := map[uint32]bool{}
		for len(l) < n {
			id := uint32(rng.Intn(1 << 20))
			if seen[id] {
				continue
			}
			seen[id] = true
			l = append(l, entry(id, (1+float64(rng.Intn(1000)))/1001))
		}
		plist.SortScoreOrder(l)
		lists[w] = l
	}
	lf, _ := mustListFile(t, lists)
	for w, want := range lists {
		got := drain(t, lf.cursor(w))
		if len(got) != len(want) {
			t.Fatalf("list %q: %d entries, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("list %q entry %d: %v != %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestDiskIndexAgreesWithMemory checks that NRA over the simulated-disk
// list file finds the phrases NRA over the index's own lists finds.
func TestDiskIndexAgreesWithMemory(t *testing.T) {
	ds := loadTest(t, Reuters)
	disk, err := diskio.NewDisk(diskio.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	lf, err := openSimDiskIndex(disk, ds.Index, "lists.idx", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(rs []topk.Result) []phrasedict.PhraseID {
		out := make([]phrasedict.PhraseID, len(rs))
		for i, r := range rs {
			out[i] = r.Phrase
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		for _, q := range ds.Queries(op)[:5] {
			mem, _, err := ds.Index.QueryNRA(q, topk.NRAOptions{K: K})
			if err != nil {
				t.Fatal(err)
			}
			dsk, _, err := queryNRADisk(ds.Index, lf, q, topk.NRAOptions{K: K})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids(mem), ids(dsk)) {
				t.Fatalf("%v: memory %v != disk %v", q, ids(mem), ids(dsk))
			}
		}
	}
	if disk.Stats().IOTimeMS == 0 {
		t.Fatal("disk queries accounted no IO time")
	}
}
