package phrasemine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"phrasemine"
	"phrasemine/internal/corpus"
	"phrasemine/internal/server"
	"phrasemine/internal/synth"
	"phrasemine/internal/textproc"
)

// keyOrderWorkload renders a small Reuters-like synthetic corpus as
// texts and harvests 3-keyword query sets from its frequent phrases.
func keyOrderWorkload(t *testing.T) (texts []string, sets [][]string) {
	t.Helper()
	cfg := synth.ReutersLike().Scale(0.02)
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := c.TokenSlices()
	if err != nil {
		t.Fatal(err)
	}
	texts = make([]string, len(tokens))
	for d, ts := range tokens {
		texts[d] = strings.Join(ts, " ")
	}
	stats, err := textproc.Extract(tokens, textproc.ExtractorOptions{MinDocFreq: 3})
	if err != nil {
		t.Fatal(err)
	}
	words, err := corpus.BuildInvertedParallel(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	harvested, err := synth.HarvestQueries(stats, synth.QuerySpec{
		Quotas:     []synth.LengthQuota{{Words: 3, Count: 8}},
		MinDocFreq: 3,
		Seed:       cfg.Seed,
	}, words.DocFreq, c.Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range harvested {
		if len(q) == 3 {
			sets = append(sets, q)
		}
	}
	if len(sets) == 0 {
		t.Fatal("harvested no 3-keyword sets")
	}
	return texts, sets
}

// permutations3 returns the six orderings of a 3-keyword set.
func permutations3(s []string) [][]string {
	a, b, c := s[0], s[1], s[2]
	return [][]string{{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}}
}

// resultBits renders results with their float bits, so two renderings
// are equal exactly when the answers are bit-identical.
func resultBits(rs []phrasemine.Result) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "%s %016x %016x\n", r.Phrase, math.Float64bits(r.Score), math.Float64bits(r.Interestingness))
	}
	return sb.String()
}

// TestKeywordOrderNeverChangesAnswers: per-phrase scores are float sums
// over the query's features, so two orderings of one keyword set would
// round differently unless Mine puts features in one canonical order.
// Every permutation must answer with the same bits, on every algorithm,
// both operators, monolithic and segmented, with un-flushed documents in
// the live tail.
func TestKeywordOrderNeverChangesAnswers(t *testing.T) {
	texts, sets := keyOrderWorkload(t)
	for _, segments := range []int{1, 3} {
		t.Run(fmt.Sprintf("segments=%d", segments), func(t *testing.T) {
			m, err := phrasemine.NewMinerFromTexts(texts[:len(texts)-20], phrasemine.Config{
				MinDocFreq: 3,
				Segments:   segments,
				Tail:       phrasemine.TailConfig{Enabled: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for _, text := range texts[len(texts)-20:] {
				if err := m.Add(phrasemine.Document{Text: text}); err != nil {
					t.Fatal(err)
				}
			}
			for _, algo := range []phrasemine.Algorithm{phrasemine.AlgoNRA, phrasemine.AlgoSMJ, phrasemine.AlgoGM, phrasemine.AlgoExact} {
				for _, op := range []phrasemine.Operator{phrasemine.AND, phrasemine.OR} {
					for _, set := range sets {
						opt := phrasemine.QueryOptions{Algorithm: algo, K: 20}
						var want string
						for i, perm := range permutations3(set) {
							res, err := m.Mine(perm, op, opt)
							if err != nil {
								t.Fatalf("%s %v %v: %v", algo, op, perm, err)
							}
							got := resultBits(res)
							if i == 0 {
								want = got
							} else if got != want {
								t.Fatalf("%s %v: %v answers differently from %v:\n%s\nvs\n%s", algo, op, perm, set, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestServerCachedKeywordOrder: the server's result cache keys on the
// sorted keyword set, so an ordering answered from an entry another
// ordering filled must carry the bytes a fresh server computes for it.
func TestServerCachedKeywordOrder(t *testing.T) {
	texts, sets := keyOrderWorkload(t)
	m, err := phrasemine.NewMinerFromTexts(texts, phrasemine.Config{MinDocFreq: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, algo := range []string{"nra", "smj"} {
		for _, op := range []string{"AND", "OR"} {
			for _, set := range sets {
				reversed := slices.Clone(set)
				slices.Reverse(reversed)
				warm := server.New(m, server.Options{})
				mineResults(t, warm, set, op, algo, false)
				got := mineResults(t, warm, reversed, op, algo, true)
				want := mineResults(t, server.New(m, server.Options{}), reversed, op, algo, false)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %s %v: cached answer differs from a fresh server's:\n%s\nvs\n%s", algo, op, reversed, got, want)
				}
			}
		}
	}
}

// mineResults posts one /mine request and returns the raw "results"
// bytes, checking the response's cached flag against wantCached.
func mineResults(t *testing.T, h http.Handler, keywords []string, op, algo string, wantCached bool) []byte {
	t.Helper()
	body, err := json.Marshal(server.MineRequest{Keywords: keywords, Op: op, Algorithm: algo, K: 20})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/mine", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("mine %v = %d: %s", keywords, w.Code, w.Body)
	}
	var resp struct {
		Results json.RawMessage `json:"results"`
		Cached  bool            `json:"cached"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached != wantCached {
		t.Fatalf("mine %v: cached = %v, want %v", keywords, resp.Cached, wantCached)
	}
	return resp.Results
}
