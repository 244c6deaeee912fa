package topk

import (
	"errors"
	"fmt"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/plist"
)

// failingCursor yields n good entries and then fails, emulating a disk
// read error mid-list.
type failingCursor struct {
	entries []plist.Entry
	failAt  int
	pos     int
	err     error
}

var errInjected = errors.New("injected read failure")

func (c *failingCursor) Len() int { return len(c.entries) }
func (c *failingCursor) Pos() int { return c.pos }
func (c *failingCursor) Err() error {
	return c.err
}
func (c *failingCursor) Next() (plist.Entry, bool) {
	if c.pos >= c.failAt {
		c.err = fmt.Errorf("entry %d: %w", c.pos, errInjected)
		return plist.Entry{}, false
	}
	e := c.entries[c.pos]
	c.pos++
	return e, true
}

func failingLists(failAt int) []plist.Cursor {
	good := plist.ScoreList{e(1, 0.9), e(2, 0.8), e(3, 0.7), e(4, 0.6)}
	bad := &failingCursor{
		entries: []plist.Entry{e(1, 0.5), e(5, 0.4), e(6, 0.3), e(7, 0.2)},
		failAt:  failAt,
	}
	return []plist.Cursor{plist.NewMemCursor(good), bad}
}

func TestNRAPropagatesCursorError(t *testing.T) {
	_, _, err := NRA(failingLists(2), NRAOptions{K: 3, Op: corpus.OpOR, BatchSize: 1 << 20})
	if err == nil {
		t.Fatal("NRA swallowed the cursor error")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("error chain broken: %v", err)
	}
}

func TestNRAFailureImmediately(t *testing.T) {
	// Failure on the very first read of the list.
	_, _, err := NRA(failingLists(0), NRAOptions{K: 3, Op: corpus.OpOR})
	if !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
}

func TestNRAEarlyStopBeforeFailureSucceeds(t *testing.T) {
	// If the stop condition fires before the failing entry is reached,
	// the query must succeed: errors in the unread tail are invisible,
	// exactly as on a real system.
	good := make(plist.ScoreList, 0, 100)
	for i := 0; i < 100; i++ {
		good = append(good, e(uint32(i), float64(1000-i)/1000))
	}
	bad := &failingCursor{entries: good, failAt: 90}
	cursors := []plist.Cursor{plist.NewMemCursor(good), bad}
	res, stats, err := NRA(cursors, NRAOptions{K: 2, Op: corpus.OpOR, BatchSize: 8})
	if err != nil {
		t.Fatalf("early-stopping run should not reach the failure: %v", err)
	}
	if !stats.StoppedEarly {
		t.Fatal("run did not stop early; test premise broken")
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
}

func TestSMJPropagatesCursorError(t *testing.T) {
	idLists := func(failAt int) []plist.Cursor {
		good := plist.ScoreList{e(1, 0.9), e(2, 0.8)}.ToIDOrdered()
		bad := &failingCursor{
			entries: []plist.Entry{e(1, 0.5), e(5, 0.4), e(6, 0.3)},
			failAt:  failAt,
		}
		return []plist.Cursor{plist.NewMemCursor(good), bad}
	}
	for _, failAt := range []int{0, 1, 2} {
		_, _, err := runSMJ(idLists(failAt), SMJOptions{K: 3, Op: corpus.OpOR})
		if !errors.Is(err, errInjected) {
			t.Fatalf("failAt=%d: want injected error, got %v", failAt, err)
		}
	}
}
