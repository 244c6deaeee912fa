package plist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"phrasemine/internal/corpus"
	"phrasemine/internal/parallel"
	"phrasemine/internal/phrasedict"
)

// Source bundles the corpus-derived statistics that list construction needs:
// the feature inverted index, the per-document forward lists of phrase IDs,
// and the global document frequency of every phrase.
type Source struct {
	// Inverted maps features to docs(D, q).
	Inverted *corpus.Inverted
	// Forward holds, for every document, the sorted phrase IDs of the
	// phrases of P occurring in it (the same structure GM-style forward
	// indexes use).
	Forward [][]phrasedict.PhraseID
	// PhraseDocFreq maps phrase ID to |docs(D, p)|.
	PhraseDocFreq []uint32
}

// Validate performs structural sanity checks.
func (s *Source) Validate() error {
	if s.Inverted == nil {
		return fmt.Errorf("plist: Source.Inverted is nil")
	}
	if len(s.Forward) != s.Inverted.NumDocs() {
		return fmt.Errorf("plist: forward index covers %d docs, inverted index %d",
			len(s.Forward), s.Inverted.NumDocs())
	}
	for d, phrases := range s.Forward {
		for i, p := range phrases {
			if int(p) >= len(s.PhraseDocFreq) {
				return fmt.Errorf("plist: doc %d references phrase %d beyond table size %d",
					d, p, len(s.PhraseDocFreq))
			}
			if i > 0 && phrases[i-1] >= p {
				return fmt.Errorf("plist: doc %d forward list not strictly sorted at %d", d, i)
			}
		}
	}
	return nil
}

// buildOne constructs one feature's score-ordered list using the caller's
// counting scratch (counts must be all-zero, sized |P|; it is returned
// all-zero). touched is recycled storage for the phrase IDs seen.
func buildOne(src *Source, feature string, counts []uint32, touched []phrasedict.PhraseID) (ScoreList, []phrasedict.PhraseID, error) {
	touched = touched[:0]
	docs, err := src.Inverted.Docs(feature)
	if err != nil {
		return nil, touched, err
	}
	for _, doc := range docs {
		for _, p := range src.Forward[doc] {
			if counts[p] == 0 {
				touched = append(touched, p)
			}
			counts[p]++
		}
	}
	if len(touched) == 0 {
		return nil, touched, nil
	}
	list := make(ScoreList, 0, len(touched))
	for _, p := range touched {
		df := src.PhraseDocFreq[p]
		if df > 0 {
			list = append(list, Entry{Phrase: p, Prob: float64(counts[p]) / float64(df)})
		}
		counts[p] = 0
	}
	SortScoreOrder(list)
	return list, touched, nil
}

// BuildListsParallel constructs the score-ordered list of every given
// feature: entries [p, P(q|p)] for every phrase p co-occurring with q,
// with P(q|p) = |docs(q) ∩ docs(p)| / |docs(p)| (Eq. 13), zero-probability
// phrases omitted as the paper prescribes. When features is nil, lists are
// built for the full vocabulary (every indexed feature), which is what a
// deployed system would persist; experiments usually restrict to the
// query workload's features.
//
// One feature's list costs Σ_{d ∈ docs(q)} |Forward[d]| plus its output
// size — independent of |P| and of vocabulary size — through a counting
// array (sized |P|) reused across features. The builds fan out across
// workers (1 builds sequentially), each owning a private counting array;
// features are handed out individually (list-building cost is dominated
// by a few very frequent words, so feature-granular work stealing
// balances far better than static chunks). Every feature's list is built
// independently, so the output is identical at every worker count.
func BuildListsParallel(src *Source, features []string, workers int) (map[string]ScoreList, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if features == nil {
		features = src.Inverted.Features()
	}
	// Dedupe, preserving first occurrence, without mutating the caller's
	// slice.
	unique := make([]string, 0, len(features))
	seen := make(map[string]struct{}, len(features))
	for _, f := range features {
		if _, dup := seen[f]; dup {
			continue
		}
		seen[f] = struct{}{}
		unique = append(unique, f)
	}

	numPhrases := len(src.PhraseDocFreq)
	results := make([]ScoreList, len(unique))
	errs := make([]error, len(unique))
	if workers <= 1 || len(unique) <= 1 {
		counts := make([]uint32, numPhrases)
		var touched []phrasedict.PhraseID
		for i, feature := range unique {
			results[i], touched, errs[i] = buildOne(src, feature, counts, touched)
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
	} else {
		if workers > len(unique) {
			workers = len(unique)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				counts := make([]uint32, numPhrases)
				var touched []phrasedict.PhraseID
				for {
					i := int(next.Add(1)) - 1
					if i >= len(unique) {
						return
					}
					results[i], touched, errs[i] = buildOne(src, unique[i], counts, touched)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := make(map[string]ScoreList, len(unique))
	for i, feature := range unique {
		out[feature] = results[i]
	}
	return out, nil
}

// TruncateAll applies Truncate(frac) to every list in the collection,
// returning a new map (list contents are shared prefixes, not copies).
func TruncateAll(lists map[string]ScoreList, frac float64) map[string]ScoreList {
	out := make(map[string]ScoreList, len(lists))
	for w, l := range lists {
		out[w] = l.Truncate(frac)
	}
	return out
}

// ToIDOrderedAllParallel converts a (possibly truncated) score-list
// collection into ID-ordered lists for SMJ, with the per-feature copy+sort
// fanned out across workers (the dominant cost of materializing an SMJ
// index over a full vocabulary; 1 converts sequentially). Per-feature
// conversions are independent, so the result is identical at every worker
// count.
func ToIDOrderedAllParallel(lists map[string]ScoreList, workers int) map[string]IDList {
	if workers <= 1 || len(lists) <= 1 {
		out := make(map[string]IDList, len(lists))
		for w, l := range lists {
			out[w] = l.ToIDOrdered()
		}
		return out
	}
	features := make([]string, 0, len(lists))
	for w := range lists {
		features = append(features, w)
	}
	results := make([]IDList, len(features))
	parallel.ForEach(len(features), workers, func(i int) {
		results[i] = lists[features[i]].ToIDOrdered()
	})
	out := make(map[string]IDList, len(features))
	for i, f := range features {
		out[f] = results[i]
	}
	return out
}

// AverageListLen reports the mean entry count over the collection, used by
// the index-size analysis (Table 5 extrapolates full-vocabulary index sizes
// from average list sizes).
func AverageListLen(lists map[string]ScoreList) float64 {
	if len(lists) == 0 {
		return 0
	}
	return float64(TotalEntries(lists)) / float64(len(lists))
}
