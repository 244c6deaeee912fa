package phrasemine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// newCompressedTestMiner builds the news-corpus miner in the
// block-compressed layout, the precondition for shared-scan batching.
func newCompressedTestMiner(t *testing.T) *Miner {
	t.Helper()
	m, err := NewMinerFromTexts(newsCorpus(), Config{
		MinPhraseWords:      1,
		MaxPhraseWords:      4,
		MinDocFreq:          3,
		DropStopwordPhrases: true,
		Compression:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMineBatchSharingMatchesMine asserts the shared-scan fast path is
// semantically invisible: a batch full of duplicate queries (maximal
// sharing, and more duplicates of one keyword set than fit in one group)
// answers exactly like per-item MineDetailed, and the shared-scan hit
// gauge confirms sharing actually engaged.
func TestMineBatchSharingMatchesMine(t *testing.T) {
	m := newCompressedTestMiner(t)
	defer m.Close()
	base := concurrencyQueries()
	var items []BatchItem
	for r := 0; r < 3; r++ {
		items = append(items, base...)
	}
	for r := 0; r <= batchGroupSize; r++ {
		items = append(items, base[0])
	}
	out := m.MineBatch(items)
	for i, it := range items {
		want, err := m.MineDetailed(context.Background(), it.Keywords, it.Op, it.Options)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		got := out[i]
		if got.Err != nil {
			t.Fatalf("batch slot %d: %v", i, got.Err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) || got.Approximate != want.Approximate ||
			got.TailDocs != want.TailDocs || got.Degraded != want.Degraded {
			t.Fatalf("batch slot %d diverges: %+v vs %+v", i, got, want)
		}
	}
	if hits := m.IndexStats().SharedScanHits; hits == 0 {
		t.Fatal("duplicate-query batches recorded no shared-scan hits")
	}
}

// TestMineBatchSharingUncompressedFallback: sharing silently degrades to
// private decodes on an uncompressed miner — same answers, zero hits.
func TestMineBatchSharingUncompressedFallback(t *testing.T) {
	m := newTestMiner(t)
	items := concurrencyQueries()
	for i, got := range m.MineBatch(append(items, items...)) {
		if got.Err != nil {
			t.Fatalf("slot %d: %v", i, got.Err)
		}
	}
	if hits := m.IndexStats().SharedScanHits; hits != 0 {
		t.Fatalf("uncompressed miner recorded %d shared-scan hits", hits)
	}
}

// TestMineBatchSharedScanRacesUpdates hammers shared-scan batches from
// many goroutines while the main goroutine streams Add/Flush cycles (run
// under -race in CI). Every query must succeed: batches planned against a
// retired index generation must fall back to private decodes, never read
// a stale cache or tear on the swap.
func TestMineBatchSharedScanRacesUpdates(t *testing.T) {
	m := newCompressedTestMiner(t)
	defer m.Close()
	base := concurrencyQueries()
	var items []BatchItem
	for r := 0; r < 2; r++ {
		items = append(items, base...)
	}

	const goroutines = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, got := range m.MineBatch(items) {
					if got.Err != nil {
						errs <- fmt.Errorf("goroutine %d round %d slot %d: %w", g, r, i, got.Err)
						return
					}
					if len(got.Results) == 0 && len(items[i].Keywords) == 1 {
						// Single-keyword news queries always have matches.
						errs <- fmt.Errorf("goroutine %d round %d slot %d: empty result", g, r, i)
						return
					}
				}
			}
		}(g)
	}
	for r := 0; r < 10; r++ {
		if err := m.Add(Document{Text: fmt.Sprintf("trade reserves update number %d for the oil sector", r)}); err != nil {
			errs <- fmt.Errorf("add %d: %w", r, err)
			break
		}
		if r%2 == 1 {
			if err := m.Flush(); err != nil {
				errs <- fmt.Errorf("flush %d: %w", r, err)
				break
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
