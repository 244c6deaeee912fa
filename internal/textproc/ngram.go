package textproc

import (
	"fmt"
	"sort"

	"phrasemine/internal/parallel"
)

// DefaultMinDocFreq is the document-frequency threshold a zero
// ExtractorOptions.MinDocFreq selects (the paper's setting). Exported so
// layers that apply the threshold themselves — the sharded engine filters
// globally over per-segment threshold-1 extractions — share one default.
const DefaultMinDocFreq = 5

// ExtractorOptions configures phrase extraction.
type ExtractorOptions struct {
	// MinWords and MaxWords bound phrase length in words. The paper uses
	// 1..6 ("word n-grams of up to 6 words"). Zero values default to 1
	// and 6.
	MinWords int
	MaxWords int
	// MinDocFreq is the minimum number of distinct documents a phrase must
	// occur in to enter P. The paper uses 5 or 10. Zero defaults to 5.
	MinDocFreq int
	// DropAllStopwordPhrases removes n-grams consisting solely of
	// stopwords from P. The interestingness measure already de-prioritizes
	// them, but dropping them shrinks P substantially at no quality cost.
	DropAllStopwordPhrases bool
	// MaxPhraseBytes drops phrases whose canonical string form exceeds
	// this many bytes, mirroring the fixed-width phrase-list restriction
	// of Section 4.2.1 (the paper uses s = 50). Zero defaults to 50.
	MaxPhraseBytes int
	// Workers bounds extraction concurrency. Values <= 1 (including the
	// zero value) select the sequential path; larger values shard the
	// document range across that many counting workers. The parallel path
	// produces output identical to the sequential one: shards are
	// contiguous document ranges, per-shard counts merge by addition, and
	// doc lists concatenate in shard order, preserving sortedness.
	Workers int
	// Shards is the number of document shards the parallel path counts
	// over. Zero defaults to 4*Workers (small multiples smooth out skew
	// between long- and short-document regions of the corpus).
	Shards int
}

func (o ExtractorOptions) withDefaults() ExtractorOptions {
	if o.MinWords <= 0 {
		o.MinWords = 1
	}
	if o.MaxWords <= 0 {
		o.MaxWords = 6
	}
	if o.MinDocFreq <= 0 {
		o.MinDocFreq = DefaultMinDocFreq
	}
	if o.MaxPhraseBytes <= 0 {
		o.MaxPhraseBytes = 50
	}
	if o.Shards <= 0 {
		o.Shards = 4 * o.Workers
	}
	return o
}

// Validate reports configuration errors that withDefaults cannot repair.
func (o ExtractorOptions) Validate() error {
	o = o.withDefaults()
	if o.MinWords > o.MaxWords {
		return fmt.Errorf("textproc: MinWords (%d) > MaxWords (%d)", o.MinWords, o.MaxWords)
	}
	return nil
}

// PhraseStats describes one extracted phrase.
type PhraseStats struct {
	Phrase  string // canonical space-joined form
	Words   int    // number of words
	DocFreq int    // number of distinct documents containing the phrase
	Docs    []int  // sorted indexes (into the input slice) of those documents
}

// Extract mines the frequent-phrase universe P from a corpus given as one
// token slice per document. SentenceBreak tokens delimit n-gram windows.
//
// The extraction is level-wise (Apriori-style): an n-gram can only reach the
// document-frequency threshold if both its (n-1)-word prefix and suffix do,
// so level n only counts n-grams whose two (n-1)-gram constituents survived
// level n-1. This keeps extraction near-linear in corpus size for realistic
// thresholds instead of materializing every n-gram occurrence.
//
// The result is sorted by (Words, Phrase) so phrase IDs assigned from it are
// deterministic.
func Extract(docs [][]string, opt ExtractorOptions) ([]PhraseStats, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()

	// frequent[n] holds the set of surviving n-grams after level n,
	// mapping canonical phrase -> sorted doc list.
	frequent := make([]map[string][]int, opt.MaxWords+1)

	// Level 1: count unigram document frequencies.
	frequent[1] = countLevel(docs, 1, nil, opt)

	for n := 2; n <= opt.MaxWords; n++ {
		if len(frequent[n-1]) == 0 {
			frequent[n] = map[string][]int{}
			continue
		}
		frequent[n] = countLevel(docs, n, frequent[n-1], opt)
	}

	var out []PhraseStats
	for n := opt.MinWords; n <= opt.MaxWords; n++ {
		for phrase, docList := range frequent[n] {
			if opt.DropAllStopwordPhrases && AllStopwords(SplitPhrase(phrase)) {
				continue
			}
			if len(phrase) > opt.MaxPhraseBytes {
				continue
			}
			out = append(out, PhraseStats{
				Phrase:  phrase,
				Words:   n,
				DocFreq: len(docList),
				Docs:    docList,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Words != out[j].Words {
			return out[i].Words < out[j].Words
		}
		return out[i].Phrase < out[j].Phrase
	})
	return out, nil
}

// docCount tracks a candidate phrase's per-document-distinct frequency
// during pass 1 (lastDoc dedups repeat occurrences within one document).
type docCount struct {
	lastDoc int32
	count   int32
}

// scanRange visits every candidate n-gram occurrence of docs[r.Lo:r.Hi],
// constrained (for n >= 2) to n-grams whose prefix and suffix (n-1)-grams
// are keys of prev. docIdx passed to visit is the global document index.
func scanRange(docs [][]string, r parallel.Range, n int, prev map[string][]int, visit func(phrase string, docIdx int)) {
	for docIdx := r.Lo; docIdx < r.Hi; docIdx++ {
		tokens := docs[docIdx]
		for start := 0; start+n <= len(tokens); start++ {
			window := tokens[start : start+n]
			if ContainsBreak(window) {
				continue
			}
			if prev != nil {
				// Apriori constraint: prefix and suffix
				// (n-1)-grams must both be frequent.
				if _, ok := prev[JoinPhrase(window[:n-1])]; !ok {
					continue
				}
				if _, ok := prev[JoinPhrase(window[1:])]; !ok {
					continue
				}
			}
			visit(JoinPhrase(window), docIdx)
		}
	}
}

// countRange runs pass 1 over one document range: per-document-distinct
// frequencies of every candidate n-gram occurring in it.
func countRange(docs [][]string, r parallel.Range, n int, prev map[string][]int) map[string]*docCount {
	counts := make(map[string]*docCount)
	scanRange(docs, r, n, prev, func(phrase string, docIdx int) {
		dc := counts[phrase]
		if dc == nil {
			counts[phrase] = &docCount{lastDoc: int32(docIdx), count: 1}
			return
		}
		if dc.lastDoc != int32(docIdx) {
			dc.lastDoc = int32(docIdx)
			dc.count++
		}
	})
	return counts
}

// collectRange runs pass 2 over one document range: sorted doc lists for the
// phrases present in survivors (read-only here, so shards may share it).
func collectRange(docs [][]string, r parallel.Range, n int, prev map[string][]int, survivors map[string][]int) map[string][]int {
	lists := make(map[string][]int)
	scanRange(docs, r, n, prev, func(phrase string, docIdx int) {
		if _, ok := survivors[phrase]; !ok {
			return
		}
		list := lists[phrase]
		if n := len(list); n > 0 && list[n-1] == docIdx {
			return
		}
		lists[phrase] = append(list, docIdx)
	})
	return lists
}

// countLevel counts document frequencies of n-grams across docs, constrained
// (for n >= 2) to n-grams whose prefix and suffix (n-1)-grams are keys of
// prev. It returns the n-grams meeting opt.MinDocFreq with their sorted doc
// lists.
//
// Counting is two-pass: the first pass only tallies per-document-distinct
// frequencies (4 bytes per candidate), the second collects doc lists for
// the survivors. On corpora with tens of millions of token windows this
// keeps peak memory proportional to the candidate count rather than the
// occurrence count.
//
// With opt.Workers > 1 both passes shard the document range across workers
// and merge deterministically: pass-1 counts add up (shards partition the
// documents, so per-document dedup stays local), and pass-2 doc lists
// concatenate in shard order, which preserves ascending document order.
func countLevel(docs [][]string, n int, prev map[string][]int, opt ExtractorOptions) map[string][]int {
	full := parallel.Range{Lo: 0, Hi: len(docs)}
	if opt.Workers <= 1 {
		counts := countRange(docs, full, n, prev)
		survivors := make(map[string][]int)
		for phrase, dc := range counts {
			if int(dc.count) >= opt.MinDocFreq {
				survivors[phrase] = make([]int, 0, dc.count)
			}
		}
		counts = nil
		// Append directly into the pre-sized lists (no per-shard staging
		// maps on the sequential path).
		scanRange(docs, full, n, prev, func(phrase string, docIdx int) {
			list, ok := survivors[phrase]
			if !ok {
				return
			}
			if n := len(list); n > 0 && list[n-1] == docIdx {
				return
			}
			survivors[phrase] = append(list, docIdx)
		})
		return survivors
	}

	ranges := parallel.Shards(len(docs), opt.Shards)

	// Pass 1, sharded: per-shard distinct-document counts, merged by
	// addition (document ranges are disjoint).
	partials := make([]map[string]*docCount, len(ranges))
	parallel.ForEachOf(ranges, opt.Workers, func(s int, r parallel.Range) {
		partials[s] = countRange(docs, r, n, prev)
	})
	total := make(map[string]int)
	for _, part := range partials {
		for phrase, dc := range part {
			total[phrase] += int(dc.count)
		}
	}
	survivors := make(map[string][]int)
	for phrase, count := range total {
		if count >= opt.MinDocFreq {
			survivors[phrase] = make([]int, 0, count)
		}
	}
	partials, total = nil, nil

	// Pass 2, sharded: per-shard doc lists for survivors, concatenated in
	// shard order so every list stays sorted.
	collected := make([]map[string][]int, len(ranges))
	parallel.ForEachOf(ranges, opt.Workers, func(s int, r parallel.Range) {
		collected[s] = collectRange(docs, r, n, prev, survivors)
	})
	for _, part := range collected {
		for phrase, list := range part {
			survivors[phrase] = append(survivors[phrase], list...)
		}
	}
	return survivors
}

// ContainsBreak reports whether the window crosses a sentence boundary
// (holds a SentenceBreak token), which disqualifies it as a phrase — the
// one rule every n-gram scan over tokenized text applies.
func ContainsBreak(window []string) bool {
	for _, t := range window {
		if t == SentenceBreak {
			return true
		}
	}
	return false
}
