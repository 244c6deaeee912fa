package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
)

// Corpus is a corpus file in the CLI's one-document-per-line format, as
// `datagen` writes it: an optional "key=value ...\t" facet header, then
// lower-case words with periods ending sentences.
type Corpus struct {
	// Texts holds each document's text, facet header stripped.
	Texts []string
	// TextBytes is the size of the corpus file: the "bytes of corpus text
	// served" that disk_amp divides by.
	TextBytes int64
}

// ReadCorpus loads a corpus file.
func ReadCorpus(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c := &Corpus{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		c.TextBytes += int64(len(line)) + 1
		if i := strings.IndexByte(line, '\t'); i >= 0 {
			line = line[i+1:]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		c.Texts = append(c.Texts, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(c.Texts) == 0 {
		return nil, fmt.Errorf("%s holds no documents", path)
	}
	return c, nil
}

// Phrase is one harvest candidate: a frequent word n-gram of the corpus.
type Phrase struct {
	Words []string `json:"w"`
	DF    int      `json:"df"`
}

// Pool is the seed-independent part of the query harvest: for each phrase
// length the most frequent content-word phrases of a corpus. Building it
// scans every n-gram, so the driver computes it once per fixture and
// stores it beside the snapshot; a run only samples from it.
type Pool struct {
	// Version is PoolVersion at the time the pool was built.
	Version int `json:"version"`
	Docs    int `json:"docs"`
	// ByLen[n] lists n-word phrases, document frequency descending then
	// lexicographic, truncated to poolDepth.
	ByLen map[int][]Phrase `json:"by_len"`
}

// ReadPool loads a pool stored as JSON beside its fixture.
func ReadPool(path string) (Pool, error) {
	var pool Pool
	raw, err := os.ReadFile(path)
	if err != nil {
		return pool, err
	}
	if err := json.Unmarshal(raw, &pool); err != nil {
		return pool, fmt.Errorf("%s: %w", path, err)
	}
	return pool, nil
}

// PoolVersion changes whenever BuildPool would select differently, so that
// a pool cached beside a fixture is rebuilt.
const PoolVersion = 2

const (
	minPhraseWords = 2
	maxPhraseWords = 4
	// poolDepth bounds each length's candidate list: the largest harvest
	// (zipf_cached, 342 sets) draws 137 two-word sets from strata of 3.
	poolDepth = 600
	// maxWordDocRatio excludes phrases containing a word found in more
	// than this share of documents: in the synthetic Zipf vocabulary the
	// head of the distribution plays the stop-word role, and the paper's
	// query sets (§5.1) are made of content words.
	maxWordDocRatio = 0.25
)

// BuildPool counts the document frequency of every 2–4 word n-gram that
// stays inside one sentence and keeps, per length, the most frequent ones
// made of distinct content words and found in at least minDF documents.
func BuildPool(c *Corpus, minDF int) Pool {
	wordDF := map[string]int{}
	gramDF := map[string]int{}
	seenWord := map[string]struct{}{}
	seenGram := map[string]struct{}{}
	for _, text := range c.Texts {
		clear(seenWord)
		clear(seenGram)
		for _, sentence := range strings.Split(text, ".") {
			words := strings.Fields(sentence)
			for i, w := range words {
				seenWord[w] = struct{}{}
				for n := minPhraseWords; n <= maxPhraseWords && i+n <= len(words); n++ {
					seenGram[strings.Join(words[i:i+n], " ")] = struct{}{}
				}
			}
		}
		for w := range seenWord {
			wordDF[w]++
		}
		for g := range seenGram {
			gramDF[g]++
		}
	}
	maxDF := int(maxWordDocRatio * float64(len(c.Texts)))
	pool := Pool{Version: PoolVersion, Docs: len(c.Texts), ByLen: map[int][]Phrase{}}
	for g, df := range gramDF {
		if df < minDF {
			continue
		}
		words := strings.Fields(g)
		if !contentWords(words, wordDF, maxDF) {
			continue
		}
		pool.ByLen[len(words)] = append(pool.ByLen[len(words)], Phrase{Words: words, DF: df})
	}
	for n, list := range pool.ByLen {
		sort.Slice(list, func(i, j int) bool {
			if list[i].DF != list[j].DF {
				return list[i].DF > list[j].DF
			}
			return strings.Join(list[i].Words, " ") < strings.Join(list[j].Words, " ")
		})
		// "a b" and "b a" are one keyword set — the server's result cache
		// keys on the sorted words — but two float summation orders, so
		// their answers differ in the last bits and a byte-for-byte check
		// against one golden would fail. Keep the more frequent phrase.
		kept := list[:0]
		seen := map[string]bool{}
		for _, p := range list {
			sorted := append([]string(nil), p.Words...)
			sort.Strings(sorted)
			if key := strings.Join(sorted, " "); !seen[key] {
				seen[key] = true
				kept = append(kept, p)
			}
		}
		pool.ByLen[n] = kept[:min(len(kept), poolDepth)]
	}
	return pool
}

// contentWords reports whether words are pairwise distinct (a repeated
// keyword would collapse in the query) and none is a head-of-Zipf word.
func contentWords(words []string, wordDF map[string]int, maxDF int) bool {
	for i, w := range words {
		if wordDF[w] > maxDF {
			return false
		}
		for _, prev := range words[:i] {
			if prev == w {
				return false
			}
		}
	}
	return true
}

// lengthShares is the composition of a harvested query set, after the
// paper's Reuters set ("two to four words", §5.1): 40 % two-word, 32 %
// three-word, the rest four-word keyword sets.
var lengthShares = []struct {
	words int
	share float64
}{{2, 0.40}, {3, 0.32}, {4, 0.28}}

// Harvest draws n keyword sets from the pool. Sampling is stratified: each
// length's frequency-sorted candidates are cut into as many equal strata
// as sets are wanted and the seed picks one phrase per stratum. Every seed
// therefore gets a different query set with the same frequency profile,
// so list lengths — and with them per-query cost — stay comparable across
// seeds while no two seeds send the same requests.
func (p Pool) Harvest(n int, seed int64) ([][]string, error) {
	rng := rand.New(rand.NewSource(seed))
	var out [][]string
	// Longest first: a small corpus has few frequent four-word phrases,
	// and what a length cannot supply the next shorter one makes up.
	carry := 0
	for i := len(lengthShares) - 1; i >= 0; i-- {
		ls := lengthShares[i]
		want := int(float64(n)*ls.share+0.5) + carry
		if i == 0 {
			want = n - len(out)
		}
		list := p.ByLen[ls.words]
		if len(list) < want {
			carry = want - len(list)
			want = len(list)
		} else {
			carry = 0
		}
		if want == 0 {
			continue
		}
		stratum := min(len(list)/want, 3)
		for s := 0; s < want; s++ {
			out = append(out, list[s*stratum+rng.Intn(stratum)].Words)
		}
	}
	if carry > 0 {
		return nil, fmt.Errorf("harvest: corpus has only %d eligible phrases, need %d", len(out), n)
	}
	return out, nil
}
