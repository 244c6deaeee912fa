package topk

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
)

// cancelingCursor wraps a cursor and fires cancel once the shared read
// counter reaches after — a deterministic mid-run cancellation trigger
// with no timing dependence. reads is shared across all cursors of a
// query so the bound assertions see total consumption.
type cancelingCursor struct {
	plist.Cursor
	cancel context.CancelFunc
	after  int
	reads  *int
}

func (c *cancelingCursor) Next() (plist.Entry, bool) {
	*c.reads++
	if *c.reads == c.after {
		c.cancel()
	}
	return c.Cursor.Next()
}

// wrapCanceling wraps every cursor with a shared read counter that fires
// cancel on the after-th Next call.
func wrapCanceling(cursors []plist.Cursor, cancel context.CancelFunc, after int) ([]plist.Cursor, *int) {
	reads := new(int)
	out := make([]plist.Cursor, len(cursors))
	for i, c := range cursors {
		out[i] = &cancelingCursor{Cursor: c, cancel: cancel, after: after, reads: reads}
	}
	return out, reads
}

// bigIDList builds one ID-ordered list of n entries (IDs 0..n-1) with
// deterministic pseudo-random probabilities — long enough to straddle
// several cancelCheckInterval windows.
func bigIDList(rng *rand.Rand, n int) plist.IDList {
	l := make(plist.IDList, n)
	for i := range l {
		l[i] = plist.Entry{Phrase: phrasedict.PhraseID(i), Prob: rng.Float64()*0.999 + 0.001}
	}
	return l
}

func TestNRACanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lists := randomLists(rand.New(rand.NewSource(1)), 3, 200, 50)
	res, _, err := NRA(cursorsOf(lists...), NRAOptions{K: 5, Op: corpus.OpOR, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("canceled NRA returned results: %v", res)
	}
}

func TestNRACancelMidRun(t *testing.T) {
	lists := randomLists(rand.New(rand.NewSource(2)), 3, 2000, 600)
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	const cancelAt, batch = 64, 16
	if total < cancelAt+4*batch {
		t.Fatalf("lists too short (%d entries) for a meaningful bound", total)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cursors, reads := wrapCanceling(cursorsOf(lists...), cancel, cancelAt)
	res, _, err := NRA(cursors, NRAOptions{K: 10, Op: corpus.OpOR, BatchSize: batch, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("canceled NRA returned a partial answer: %v", res)
	}
	// The check runs once per maintenance batch, so at most one more
	// batch of entries is consumed after the cancel fires.
	if *reads > cancelAt+batch {
		t.Fatalf("NRA read %d entries after cancel at %d; want <= %d more", *reads-cancelAt, cancelAt, batch)
	}
}

func TestSMJCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lists := randomLists(rand.New(rand.NewSource(3)), 2, 200, 50)
	res, _, err := runSMJ(idCursorsOf(lists...), SMJOptions{K: 5, Op: corpus.OpOR, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("canceled SMJ returned results: %v", res)
	}
}

func TestSMJCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l1, l2 := bigIDList(rng, 3000), bigIDList(rng, 3000)
	const cancelAt = 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cursors, reads := wrapCanceling(
		[]plist.Cursor{plist.NewMemCursor(l1), plist.NewMemCursor(l2)}, cancel, cancelAt)
	res, _, err := runSMJ(cursors, SMJOptions{K: 10, Op: corpus.OpOR, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("canceled SMJ returned a partial answer: %v", res)
	}
	// The merge loop checks once per cancelCheckInterval pops; each pop
	// advances one cursor, plus one lookahead entry per list held in the
	// loser tree.
	limit := cancelAt + cancelCheckInterval + len(cursors)
	if *reads > limit {
		t.Fatalf("SMJ read %d entries total after cancel at %d; want <= %d", *reads, cancelAt, limit)
	}
}

func TestScanGroupsCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(5))
	cursors := []plist.Cursor{plist.NewMemCursor(bigIDList(rng, 10))}
	err := ScanGroupsCtx(ctx, cursors, NewScratch(0), func(phrasedict.PhraseID, []float64, uint64) {
		t.Fatal("canceled scan emitted a group")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScanGroupsCtxCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l1, l2 := bigIDList(rng, 3000), bigIDList(rng, 3000)
	const cancelAt = 50
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cursors, reads := wrapCanceling(
		[]plist.Cursor{plist.NewMemCursor(l1), plist.NewMemCursor(l2)}, cancel, cancelAt)
	emitted := 0
	err := ScanGroupsCtx(ctx, cursors, NewScratch(0), func(phrasedict.PhraseID, []float64, uint64) {
		emitted++
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	limit := cancelAt + cancelCheckInterval + len(cursors)
	if *reads > limit {
		t.Fatalf("scan read %d entries total after cancel at %d; want <= %d", *reads, cancelAt, limit)
	}
	if emitted >= 3000 {
		t.Fatalf("scan emitted %d groups despite cancellation", emitted)
	}
}

// TestCtxBackgroundUnchanged pins that threading a live context through
// the algorithms leaves results bit-identical to the context-free runs.
func TestCtxBackgroundUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		lists := randomLists(rng, 3, 300, 80)
		for _, op := range []corpus.Operator{corpus.OpOR, corpus.OpAND} {
			base := NRAOptions{K: 10, Op: op}
			withCtx := base
			withCtx.Ctx = context.Background()
			want, _, err := NRA(cursorsOf(lists...), base)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := NRA(cursorsOf(lists...), withCtx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d op %v: NRA with ctx diverged", trial, op)
			}
			swant, _, err := runSMJ(idCursorsOf(lists...), SMJOptions{K: 10, Op: op})
			if err != nil {
				t.Fatal(err)
			}
			sgot, _, err := runSMJ(idCursorsOf(lists...), SMJOptions{K: 10, Op: op, Ctx: context.Background()})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sgot, swant) {
				t.Fatalf("trial %d op %v: SMJ with ctx diverged", trial, op)
			}
		}
	}
}
