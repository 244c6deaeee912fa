package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"phrasemine"
	"phrasemine/internal/server"
)

func TestParseFacets(t *testing.T) {
	got, ok := parseFacets("venue=sigmod year=1997")
	if !ok {
		t.Fatal("valid facets rejected")
	}
	want := map[string]string{"venue": "sigmod", "year": "1997"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseFacets = %v", got)
	}
	// Case is kept as written: the miner lowercases facets when it
	// indexes them (TestQueryFacetAnyCase).
	got, ok = parseFacets("Venue=SIGMOD")
	if !ok || got["Venue"] != "SIGMOD" {
		t.Fatalf("parseFacets(Venue=SIGMOD) = %v", got)
	}
	for _, bad := range []string{"", "noequals", "=value", "key=", "a=b plain"} {
		if _, ok := parseFacets(bad); ok {
			t.Errorf("parseFacets(%q) accepted", bad)
		}
	}
}

func writeTempCorpus(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadCorpus(t *testing.T) {
	path := writeTempCorpus(t,
		"venue=sigmod\tquery optimization in databases\n"+
			"\n"+ // blank lines skipped
			"plain text document without facets\n"+
			"text with a literal\ttab that is not a facet header\n")
	docs, err := readDocuments(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []phrasemine.Document{
		{Text: "query optimization in databases", Facets: map[string]string{"venue": "sigmod"}},
		{Text: "plain text document without facets"},
		{Text: "text with a literal\ttab that is not a facet header"},
	}
	if !reflect.DeepEqual(docs, want) {
		t.Fatalf("readDocuments = %#v\nwant %#v", docs, want)
	}
}

func TestReadCorpusErrors(t *testing.T) {
	if _, err := readDocuments("/nonexistent/file"); err == nil {
		t.Fatal("missing file should error")
	}
	for _, content := range []string{"", "\n\n"} {
		if _, err := readDocuments(writeTempCorpus(t, content)); err == nil {
			t.Fatalf("corpus %q without documents should error", content)
		}
	}
}

// TestBuildIndexServeRoundTrip is the CLI-level smoke path: build-index
// writes a snapshot, the snapshot loads, and the HTTP layer answers a
// query over it.
func TestBuildIndexServeRoundTrip(t *testing.T) {
	var lines string
	for i := 0; i < 10; i++ {
		lines += "the economic minister discussed trade reserves\n"
		lines += "query optimization in database systems\n"
	}
	corpusPath := writeTempCorpus(t, lines)
	snapPath := filepath.Join(t.TempDir(), "corpus.snap")
	if err := cmdBuildIndex([]string{"-in", corpusPath, "-out", snapPath, "-mindf", "3"}); err != nil {
		t.Fatal(err)
	}

	m, err := phrasemine.LoadMinerFile(snapPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(m, server.Options{})
	req := httptest.NewRequest(http.MethodPost, "/mine",
		strings.NewReader(`{"keywords":["trade"],"k":3}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("mine over loaded snapshot = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Phrase string `json:"phrase"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results from served snapshot")
	}
}

func TestCmdBuildIndexErrors(t *testing.T) {
	if err := cmdBuildIndex([]string{}); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := cmdBuildIndex([]string{"-in", "/nonexistent/corpus.txt", "-out", filepath.Join(t.TempDir(), "x.snap")}); err == nil {
		t.Fatal("missing corpus accepted")
	}
}

// twoTopicCorpus is a corpus file whose phrases clear -mindf 3.
func twoTopicCorpus(t *testing.T) string {
	t.Helper()
	var lines string
	for i := 0; i < 10; i++ {
		lines += "the economic minister discussed trade reserves\n"
		lines += "query optimization in database systems\n"
		lines += "Topic=Trade\tforeign trade reserves rose sharply\n"
	}
	return writeTempCorpus(t, lines)
}

func TestBuildIndexEndToEnd(t *testing.T) {
	m, err := buildMiner(twoTopicCorpus(t), 3, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.NumDocuments() != 30 || m.NumPhrases() == 0 {
		t.Fatalf("built %d docs, %d phrases", m.NumDocuments(), m.NumPhrases())
	}
	res, err := m.Mine([]string{"economic"}, phrasemine.AND, phrasemine.QueryOptions{K: 20})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		found = found || r.Phrase == "economic minister"
	}
	if !found {
		t.Fatalf("expected phrase missing from %v", res)
	}
}

// runCmd runs a query or stats command and returns what it printed.
func runCmd(t *testing.T, cmd func(io.Writer, []string) error, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cmd(&out, args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String()
}

// wantQueryOutput renders MineDetailed's answer on m the way query prints
// it, without the header line.
func wantQueryOutput(t *testing.T, m *phrasemine.Miner, keywords []string, op phrasemine.Operator, opt phrasemine.QueryOptions) string {
	t.Helper()
	mined, err := m.MineDetailed(context.Background(), keywords, op, opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, r := range mined.Results {
		fmt.Fprintf(&b, "%2d. %-40s score=%.4f interestingness=%.4f\n", i+1, r.Phrase, r.Score, r.Interestingness)
	}
	return b.String()
}

// results drops query's header line.
func results(out string) string {
	_, rest, _ := strings.Cut(out, "\n")
	return rest
}

// TestQueryMatchesMineDetailed checks that query answers exactly what
// MineDetailed answers on the same miner, from each of the three sources
// serve opens.
func TestQueryMatchesMineDetailed(t *testing.T) {
	corpusPath := twoTopicCorpus(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "corpus.snap")
	shards := filepath.Join(dir, "shards")
	if err := cmdBuildIndex([]string{"-in", corpusPath, "-out", snap, "-mindf", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuildIndex([]string{"-in", corpusPath, "-out", shards, "-mindf", "3", "-segments", "3"}); err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		args []string
		open func() (*phrasemine.Miner, error)
	}{
		{"in", []string{"-in", corpusPath, "-mindf", "3"}, func() (*phrasemine.Miner, error) {
			return buildMiner(corpusPath, 3, 0, false, 0)
		}},
		{"index", []string{"-index", snap}, func() (*phrasemine.Miner, error) {
			return phrasemine.LoadMinerFile(snap, 0)
		}},
		{"manifest", []string{"-manifest", shards}, func() (*phrasemine.Miner, error) {
			return phrasemine.OpenShardedMiner(shards, 0)
		}},
	}
	queries := []struct {
		keywords string
		op       phrasemine.Operator
		opt      phrasemine.QueryOptions
		flags    []string
	}{
		{"trade reserves", phrasemine.OR, phrasemine.QueryOptions{K: 5, Algorithm: phrasemine.AlgoNRA}, []string{"-op", "OR"}},
		{"trade", phrasemine.AND, phrasemine.QueryOptions{K: 3, Algorithm: phrasemine.AlgoSMJ, ListFraction: 0.5}, []string{"-op", "and", "-k", "3", "-algo", "smj", "-frac", "0.5"}},
		{"query optimization", phrasemine.AND, phrasemine.QueryOptions{K: 5, Algorithm: phrasemine.AlgoExact}, []string{"-op", "AND", "-algo", "exact"}},
		{"economic", phrasemine.OR, phrasemine.QueryOptions{K: 4, Algorithm: phrasemine.AlgoGM}, []string{"-k", "4", "-algo", "gm"}},
	}
	for _, src := range sources {
		m, err := src.open()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			args := append(append(append([]string(nil), src.args...), "-keywords", q.keywords), q.flags...)
			got := runCmd(t, cmdQuery, args...)
			want := wantQueryOutput(t, m, strings.Fields(q.keywords), q.op, q.opt)
			if want == "" {
				t.Fatalf("%s %v: MineDetailed answered nothing; the fixture is too small", src.name, args)
			}
			if results(got) != want {
				t.Errorf("%s %v printed\n%s\nwant\n%s", src.name, args, got, want)
			}
		}
		m.Close()
	}
}

// TestQueryKeywordsNormalized checks that query hands its keywords to the
// miner's normalization: punctuation and order do not change the query.
func TestQueryKeywordsNormalized(t *testing.T) {
	corpusPath := twoTopicCorpus(t)
	comma := runCmd(t, cmdQuery, "-in", corpusPath, "-mindf", "3", "-op", "AND", "-keywords", "trade, reserves")
	spaced := runCmd(t, cmdQuery, "-in", corpusPath, "-mindf", "3", "-op", "AND", "-keywords", "reserves trade")
	if results(comma) == "" {
		t.Fatalf("\"trade, reserves\" answered nothing:\n%s", comma)
	}
	if comma != spaced {
		t.Fatalf("\"trade, reserves\" printed\n%s\n\"reserves trade\" printed\n%s", comma, spaced)
	}
}

// TestQueryFacetAnyCase checks that a facet written with capitals in the
// corpus file is queryable in any case.
func TestQueryFacetAnyCase(t *testing.T) {
	corpusPath := twoTopicCorpus(t)
	lower := runCmd(t, cmdQuery, "-in", corpusPath, "-mindf", "3", "-op", "AND", "-keywords", "topic:trade")
	upper := runCmd(t, cmdQuery, "-in", corpusPath, "-mindf", "3", "-op", "AND", "-keywords", "Topic:TRADE")
	if results(lower) == "" {
		t.Fatalf("topic:trade answered nothing:\n%s", lower)
	}
	if lower != upper {
		t.Fatalf("topic:trade printed\n%s\nTopic:TRADE printed\n%s", lower, upper)
	}
}

func TestQueryErrors(t *testing.T) {
	corpusPath := twoTopicCorpus(t)
	for _, args := range [][]string{
		{"-keywords", "trade"},             // no source
		{"-in", corpusPath, "-mindf", "3"}, // no keywords
		{"-in", corpusPath, "-keywords", "trade", "-op", "XOR"},
		{"-in", corpusPath, "-keywords", "trade", "-algo", "bogus"},
		{"-index", filepath.Join(t.TempDir(), "missing.snap"), "-keywords", "trade"},
	} {
		if err := cmdQuery(io.Discard, args); err == nil {
			t.Errorf("query %v succeeded", args)
		}
	}
}

// TestStatsReportsMinerCounts checks stats against the miner it opens.
func TestStatsReportsMinerCounts(t *testing.T) {
	corpusPath := twoTopicCorpus(t)
	snap := filepath.Join(t.TempDir(), "corpus.snap")
	if err := cmdBuildIndex([]string{"-in", corpusPath, "-out", snap, "-mindf", "3"}); err != nil {
		t.Fatal(err)
	}
	m, err := phrasemine.LoadMinerFile(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, args := range [][]string{{"-index", snap}, {"-in", corpusPath, "-mindf", "3"}} {
		out := runCmd(t, cmdStats, args...)
		for _, want := range []string{
			fmt.Sprintf("documents:        %d\n", m.NumDocuments()),
			fmt.Sprintf("phrases |P|:      %d\n", m.NumPhrases()),
			fmt.Sprintf("features |W|:     %d\n", m.VocabSize()),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("stats %v printed\n%s\nmissing %q", args, out, want)
			}
		}
	}
}
