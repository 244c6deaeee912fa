// Command phrasemine is the CLI for the interesting-phrase mining system:
// it builds miner snapshots from text corpora, serves queries over HTTP,
// and answers one-off top-k queries and index statistics. Every command
// goes through the public phrasemine.Miner, opened from a snapshot, a
// sharded manifest or a corpus file.
//
// A corpus file holds one document per line. Lines may start with
// `key=value ...\t` facet headers, e.g.:
//
//	venue=sigmod year=1997	efficient query optimization in ...
//
// Usage:
//
//	phrasemine build-index -in corpus.txt -out corpus.snap   # full miner snapshot
//	phrasemine serve -index corpus.snap -addr :8080          # HTTP query server
//	phrasemine query -index corpus.snap -keywords "trade reserves" -op AND
//	phrasemine query -in corpus.txt -keywords "trade reserves" -op OR
//	phrasemine stats -index corpus.snap
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"phrasemine"
	"phrasemine/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build-index":
		err = cmdBuildIndex(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "query":
		err = cmdQuery(os.Stdout, os.Args[2:])
	case "stats":
		err = cmdStats(os.Stdout, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "phrasemine:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  phrasemine build-index -in corpus.txt -out corpus.snap [-mindf N] [-workers N] [-compress] [-segments N]
  phrasemine serve (-index corpus.snap | -manifest dir | -in corpus.txt) [-addr :8080] [-cache N] [-query-timeout D] [-max-inflight N] [-queue-timeout D] [-tenant-qps F] [-slow-query D] [-workers N] [-pprof] [-mmap] [-compress] [-segments N] [-wal-dir dir] [-wal-sync always|batch] [-live-tail] [-tail-exact-threshold N] [-tail-width N] [-tail-depth N] [-tail-window D] [-tail-periods N] [-compact-interval D] [-compact-max-docs N]
  phrasemine query (-index corpus.snap | -manifest dir | -in corpus.txt) -keywords "w1 w2" [-op AND|OR] [-k N] [-algo nra|smj|gm|exact] [-frac F] [-mindf N] [-workers N]
  phrasemine stats (-index corpus.snap | -manifest dir | -in corpus.txt) [-mindf N] [-workers N]

build-index writes a versioned full-miner snapshot (corpus, indexes and
phrase lists) that serve, query and stats open without rebuilding; with
-in they build the same miner in memory first (-mindf applies there).

-workers bounds build and query parallelism (0 = all cores, 1 =
sequential); the built index is identical at every worker count.

-compress keeps the query-time lists block-compressed in memory (results
are bit-identical). serve -mmap opens the snapshot zero-copy via mmap:
startup is O(directories) and resident memory is demand-paged and shared
across processes; the mapping is unmapped cleanly on SIGINT.

-segments N > 1 selects the sharded multi-segment engine: build-index
then treats -out as a directory and writes one snapshot per segment plus
a manifest.json, and serve -manifest opens it with every segment
memory-mapped. Sharded answers are bit-identical to the monolithic
engine over the same corpus.

serve -wal-dir attaches a durable mutation log: POST /docs and DELETE
/docs are appended and fsynced there before the 202, survive kill -9,
and replay into the pending delta on restart; POST /flush checkpoints
the rebuilt index back into -index/-manifest and truncates the log.
-wal-sync batch trades one fsync per mutation for group commit. The log
has a single writer, so -wal-dir disables hot reload (POST /reload and
SIGHUP).

serve keeps a live tail by default (-live-tail=false turns it off):
freshly POSTed documents answer queries immediately, exactly while the
tail holds at most -tail-exact-threshold documents and via count-min
sketch upper bounds above it (responses carry "approximate" and
"tail_docs" markers). A "window":"1h" field on /mine mines only the
trailing hour from -tail-periods rotating -tail-window sketches.
-compact-interval / -compact-max-docs fold the tail into real segments
in the background (a flush plus WAL checkpoint, cache invalidated).`)
}

// forEachDocLine streams a one-document-per-line corpus file, calling fn
// with each document's text and parsed facet header (nil when absent).
// It errors if the file holds no documents, so every consumer shares one
// definition of the corpus file format.
func forEachDocLine(path string, fn func(text string, facets map[string]string)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var facets map[string]string
		if tab := strings.IndexByte(line, '\t'); tab > 0 {
			if parsed, ok := parseFacets(line[:tab]); ok {
				facets = parsed
				line = line[tab+1:]
			}
		}
		fn(line, facets)
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("no documents in %s", path)
	}
	return nil
}

// parseFacets parses "k=v k2=v2"; every field must be a pair for the header
// to count as facets (otherwise it is document text containing a tab).
// Names and values are kept as written: the miner lowercases facets when
// it indexes them.
func parseFacets(header string) (map[string]string, bool) {
	fields := strings.Fields(header)
	if len(fields) == 0 {
		return nil, false
	}
	out := make(map[string]string, len(fields))
	for _, f := range fields {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 || eq == len(f)-1 {
			return nil, false
		}
		out[f[:eq]] = f[eq+1:]
	}
	return out, true
}

// readDocuments parses a corpus file into public API documents (raw text
// plus facets; the miner tokenizes itself).
func readDocuments(path string) ([]phrasemine.Document, error) {
	var docs []phrasemine.Document
	err := forEachDocLine(path, func(text string, facets map[string]string) {
		docs = append(docs, phrasemine.Document{Text: text, Facets: facets})
	})
	if err != nil {
		return nil, err
	}
	return docs, nil
}

// buildMiner indexes a corpus file through the public API. segments > 1
// selects the sharded multi-segment engine.
func buildMiner(path string, minDF, workers int, compress bool, segments int) (*phrasemine.Miner, error) {
	docs, err := readDocuments(path)
	if err != nil {
		return nil, err
	}
	cfg := phrasemine.DefaultConfig()
	cfg.MinDocFreq = minDF
	cfg.Workers = workers
	cfg.Compression = compress
	cfg.Segments = segments
	return phrasemine.NewMinerFromDocuments(docs, cfg)
}

// source selects where a command's miner comes from: a snapshot (-index),
// a sharded manifest (-manifest) or a corpus file built in memory (-in).
// serve, query and stats all open it through openMiner.
type source struct {
	index, manifest, in string
	minDF, workers      int
	// Set by serve's flags only.
	mmap, compress bool
	segments       int
}

// sourceFlags registers the flags every miner-opening command shares.
func sourceFlags(fs *flag.FlagSet) *source {
	src := &source{}
	fs.StringVar(&src.index, "index", "", "miner snapshot written by `phrasemine build-index`")
	fs.StringVar(&src.manifest, "manifest", "", "sharded manifest directory (or manifest.json) written by `phrasemine build-index -segments N`")
	fs.StringVar(&src.in, "in", "", "corpus file (one document per line), built in memory")
	fs.IntVar(&src.minDF, "mindf", 5, "minimum phrase document frequency (-in mode)")
	fs.IntVar(&src.workers, "workers", 0, "build and query parallelism (0 = all cores, 1 = sequential)")
	return src
}

// openMiner opens src and writes one line saying what it opened to log.
// reload reopens the same on-disk generation; it is nil for an -in miner,
// which has none.
func openMiner(src source, log io.Writer) (m *phrasemine.Miner, reload func() (*phrasemine.Miner, error), err error) {
	start := time.Now()
	switch {
	case src.manifest != "":
		reload = func() (*phrasemine.Miner, error) {
			return phrasemine.OpenShardedMiner(src.manifest, src.workers)
		}
		if m, err = reload(); err != nil {
			return nil, nil, err
		}
		st := m.IndexStats()
		fmt.Fprintf(log, "opened %d-segment manifest %s in %v: %d docs, |P|=%d phrases, %s mapped\n",
			m.Segments(), src.manifest, time.Since(start).Round(time.Millisecond),
			m.NumDocuments(), m.NumPhrases(), byteSize(st.MappedBytes))
	case src.index != "" && src.mmap:
		reload = func() (*phrasemine.Miner, error) {
			return phrasemine.OpenMinerMapped(src.index, src.workers)
		}
		if m, err = reload(); err != nil {
			return nil, nil, err
		}
		st := m.IndexStats()
		fmt.Fprintf(log, "mapped snapshot %s in %v: %d docs, |P|=%d phrases, %s shared mapping\n",
			src.index, time.Since(start).Round(time.Microsecond), m.NumDocuments(), m.NumPhrases(),
			byteSize(st.MappedBytes))
	case src.index != "":
		reload = func() (*phrasemine.Miner, error) {
			return phrasemine.LoadMinerFile(src.index, src.workers)
		}
		if m, err = reload(); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(log, "loaded snapshot %s in %v: %d docs, |P|=%d phrases\n",
			src.index, time.Since(start).Round(time.Millisecond), m.NumDocuments(), m.NumPhrases())
	case src.in != "":
		if m, err = buildMiner(src.in, src.minDF, src.workers, src.compress, src.segments); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(log, "built index from %s in %v: %d docs, |P|=%d phrases\n",
			src.in, time.Since(start).Round(time.Millisecond), m.NumDocuments(), m.NumPhrases())
	default:
		return nil, nil, fmt.Errorf("one of -index, -manifest or -in is required")
	}
	return m, reload, nil
}

// cmdBuildIndex builds a miner and persists it as a snapshot: the
// build-once half of the build -> serve split.
func cmdBuildIndex(args []string) error {
	fs := flag.NewFlagSet("build-index", flag.ExitOnError)
	in := fs.String("in", "", "corpus file (one document per line)")
	out := fs.String("out", "corpus.snap", "snapshot output path (a directory with -segments > 1)")
	minDF := fs.Int("mindf", 5, "minimum phrase document frequency")
	workers := fs.Int("workers", 0, "build parallelism (0 = all cores, 1 = sequential)")
	compress := fs.Bool("compress", false, "record block-compressed in-memory operation in the snapshot config")
	segments := fs.Int("segments", 0, "build a sharded engine with this many segments (writes a manifest directory; <= 1 builds the monolithic snapshot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	start := time.Now()
	m, err := buildMiner(*in, *minDF, *workers, *compress, *segments)
	if err != nil {
		return err
	}
	built := time.Since(start)
	if *segments > 1 {
		if err := m.SaveManifest(*out); err != nil {
			return err
		}
		fmt.Printf("indexed %d docs in %v: |P|=%d phrases, |W|=%d features -> %s (%d-segment manifest)\n",
			m.NumDocuments(), built.Round(time.Millisecond), m.NumPhrases(), m.VocabSize(),
			*out, m.Segments())
		return nil
	}
	if err := m.SaveFile(*out); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d docs in %v: |P|=%d phrases, |W|=%d features -> %s (%s)\n",
		m.NumDocuments(), built.Round(time.Millisecond), m.NumPhrases(), m.VocabSize(),
		*out, byteSize(info.Size()))
	return nil
}

// cmdServe loads a snapshot (or builds from a corpus file) and serves the
// HTTP JSON API until interrupted.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	src := sourceFlags(fs)
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", server.DefaultCacheSize, "result-cache entries (negative disables)")
	queryTimeout := fs.Duration("query-timeout", server.DefaultQueryTimeout, "per-query timeout")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing queries (0 disables admission control)")
	queueTimeout := fs.Duration("queue-timeout", server.DefaultQueueTimeout, "max wait for an admission slot before shedding with 503")
	tenantQPS := fs.Float64("tenant-qps", 0, "per-tenant sustained queries/sec, keyed on the X-Tenant header (0 disables quotas)")
	slowQuery := fs.Duration("slow-query", 0, "log queries at least this slow (0 disables)")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof and /debug/vars (profiling + expvar counters)")
	fs.BoolVar(&src.mmap, "mmap", false, "open -index zero-copy via mmap (O(header) startup, demand-paged shared memory)")
	fs.BoolVar(&src.compress, "compress", false, "block-compressed in-memory lists (-in mode; heap -index mode follows the snapshot's own setting, -mmap is always compressed)")
	fs.IntVar(&src.segments, "segments", 0, "sharded engine segment count (-in mode; <= 1 is monolithic)")
	walDir := fs.String("wal-dir", "", "durable mutation log directory: mutations are logged and fsynced here before they are acknowledged, survive kill -9, and replay on restart (disables hot reload)")
	walSync := fs.String("wal-sync", "always", "mutation log durability: always (one fsync per mutation) or batch (concurrent mutations share fsyncs); only meaningful with -wal-dir")
	liveTail := fs.Bool("live-tail", true, "serve freshly POSTed documents immediately from the live tail, no flush needed")
	tailExact := fs.Int("tail-exact-threshold", 0, "tail size up to which tail contributions are exact; above it the count-min sketch answers and results are marked approximate (0 = default 256)")
	tailWidth := fs.Int("tail-width", 0, "count-min sketch width in counters per row (0 = default 8192)")
	tailDepth := fs.Int("tail-depth", 0, "count-min sketch rows (0 = default 4)")
	tailWindow := fs.Duration("tail-window", 0, "rotation period of windowed mining; \"window\" queries round up to whole periods (0 = default 1m)")
	tailPeriods := fs.Int("tail-periods", 0, "rotation ring size; windowed history covers tail-window x tail-periods (0 = default 64)")
	compactInterval := fs.Duration("compact-interval", 0, "fold the live tail into real segments this often when updates are pending (0 disables the timer trigger)")
	compactMaxDocs := fs.Int("compact-max-docs", 0, "fold the live tail once it buffers this many documents (0 disables the size trigger)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, reload, err := openMiner(*src, os.Stdout)
	if err != nil {
		return err
	}

	tailCfg := phrasemine.TailConfig{
		ExactThreshold: *tailExact,
		SketchWidth:    *tailWidth,
		SketchDepth:    *tailDepth,
		WindowPeriod:   *tailWindow,
		WindowPeriods:  *tailPeriods,
	}
	if *liveTail {
		// The tail must be enabled before the mutation log attaches so WAL
		// replay repopulates it: recovered-but-uncompacted documents stay
		// query-visible across a crash.
		if err := m.EnableLiveTail(tailCfg); err != nil {
			m.Close()
			return err
		}
		if reload != nil {
			// A hot-reloaded generation starts without a tail; re-enable it
			// so POST /reload does not silently turn live serving off.
			open := reload
			reload = func() (*phrasemine.Miner, error) {
				fresh, err := open()
				if err != nil {
					return nil, err
				}
				if err := fresh.EnableLiveTail(tailCfg); err != nil {
					fresh.Close()
					return nil, err
				}
				return fresh, nil
			}
		}
	}

	if *walDir != "" {
		// Flush checkpoints the rebuilt index to wherever the persistent
		// form lives so the log can truncate; an -in miner has no such
		// place, so its log merely grows until the process is rebuilt.
		snapPath := ""
		switch {
		case src.manifest != "":
			snapPath = src.manifest
			if strings.HasSuffix(snapPath, ".json") {
				snapPath = filepath.Dir(snapPath)
			}
		case src.index != "":
			snapPath = src.index
		}
		replayed, err := m.EnableWAL(phrasemine.WALConfig{Dir: *walDir, Sync: *walSync, SnapshotPath: snapPath})
		if err != nil {
			m.Close()
			return err
		}
		// The log has exactly one writer: this miner. A hot-reloaded
		// generation would serve un-logged mutations, so reload (POST
		// /reload and SIGHUP) is disabled while the log is attached;
		// restart the process to pick up a new on-disk generation.
		reload = nil
		fmt.Printf("mutation log in %s (sync=%s): replayed %d logged mutations\n", *walDir, *walSync, replayed)
	}

	opts := server.Options{
		CacheSize:          *cache,
		QueryTimeout:       *queryTimeout,
		Reload:             reload,
		MaxInflight:        *maxInflight,
		QueueTimeout:       *queueTimeout,
		TenantQPS:          *tenantQPS,
		SlowQueryThreshold: *slowQuery,
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	// An -in miner has no on-disk generation to reopen; reload stays nil
	// and POST /reload answers 501.
	srvr := server.New(m, opts)
	var stopCompact func()
	if *compactInterval > 0 || *compactMaxDocs > 0 {
		stopCompact, err = startCompactor(srvr, *compactInterval, *compactMaxDocs)
		if err != nil {
			m.Close()
			return err
		}
		fmt.Printf("auto-compaction on (interval=%v, max-docs=%d)\n", *compactInterval, *compactMaxDocs)
	}
	var handler http.Handler = srvr
	if *pprofOn {
		// Profiling is an opt-in flag, not a build variant, so production
		// profiles can be captured without a rebuild.
		mux := http.NewServeMux()
		server.RegisterDebug(mux)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if reload != nil {
		// SIGHUP hot-reloads the on-disk generation, the conventional
		// "re-read your config" signal: swap in the fresh snapshot/manifest
		// and retire the old mapping once its queries drain.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if err := srvr.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "reload: %v\n", err)
					continue
				}
				fmt.Println("reloaded index generation")
			}
		}()
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("serving on %s (cache=%d, timeout=%v, max-inflight=%d)\n", *addr, *cache, *queryTimeout, *maxInflight)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("shutting down")
	// Reject queued and newly arriving queries immediately so the
	// graceful-shutdown window below is spent finishing admitted work.
	srvr.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// In-flight queries have drained (Shutdown waited for them); release
	// the snapshot mapping before exit so -mmap serves unmap cleanly on
	// SIGINT/SIGTERM rather than relying on process teardown. Close the
	// server's current miner, not the one opened above — a reload may have
	// swapped generations (each swap closes its predecessor).
	if stopCompact != nil {
		stopCompact()
	}
	if err := srvr.Miner().Close(); err != nil {
		return err
	}
	fmt.Println("closed index")
	return nil
}

// startCompactor arms the miner's background tail compaction
// (StartAutoCompact, with the server's cache invalidation as the
// post-compaction hook) and keeps it armed across hot reloads: the
// compaction goroutine exits with its generation, so a watcher re-arms it
// on the swapped-in miner. The returned stop function halts both and is
// safe to call once.
func startCompactor(srvr *server.Server, interval time.Duration, maxDocs int) (func(), error) {
	cur := srvr.Miner()
	stop, err := cur.StartAutoCompact(interval, maxDocs, srvr.InvalidateCache)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				stop()
				return
			case <-ticker.C:
				m := srvr.Miner()
				if m == cur {
					continue
				}
				stop()
				next, err := m.StartAutoCompact(interval, maxDocs, srvr.InvalidateCache)
				if err != nil {
					// Only a missing trigger errors here, and ours is set;
					// keep watching rather than dying silently.
					fmt.Fprintf(os.Stderr, "auto-compaction re-arm: %v\n", err)
					continue
				}
				cur, stop = m, next
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}, nil
}

// cmdQuery opens a miner exactly as serve does and prints one
// MineDetailed answer. -keywords is split on whitespace and normalized by
// the miner, so "a, b" and "b a" ask the same query.
func cmdQuery(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	src := sourceFlags(fs)
	keywords := fs.String("keywords", "", "space-separated query keywords (facets as name:value)")
	opStr := fs.String("op", "OR", "operator: AND or OR")
	k := fs.Int("k", phrasemine.DefaultK, "number of results")
	algo := fs.String("algo", "nra", "algorithm: nra, smj, gm, exact")
	frac := fs.Float64("frac", phrasemine.DefaultListFraction, "partial-list fraction in (0,1]")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if strings.TrimSpace(*keywords) == "" {
		return fmt.Errorf("-keywords is required")
	}
	var op phrasemine.Operator
	switch strings.ToUpper(strings.TrimSpace(*opStr)) {
	case "AND":
		op = phrasemine.AND
	case "OR":
		op = phrasemine.OR
	default:
		return fmt.Errorf("unknown operator %q (want AND or OR)", *opStr)
	}
	m, _, err := openMiner(*src, os.Stderr)
	if err != nil {
		return err
	}
	defer m.Close()
	kws := strings.Fields(*keywords)
	mined, err := m.MineDetailed(context.Background(), kws, op, phrasemine.QueryOptions{
		K:            *k,
		Algorithm:    phrasemine.Algorithm(*algo),
		ListFraction: *frac,
	})
	if err != nil {
		return err
	}
	features := phrasemine.NormalizeKeywords(kws)
	slices.Sort(features)
	fmt.Fprintf(w, "query [%s: %s] k=%d algo=%s\n", op, strings.Join(features, " "), *k, *algo)
	for i, r := range mined.Results {
		fmt.Fprintf(w, "%2d. %-40s score=%.4f interestingness=%.4f\n", i+1, r.Phrase, r.Score, r.Interestingness)
	}
	return nil
}

// cmdStats opens a miner exactly as serve does and prints its size and
// index footprint.
func cmdStats(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	src := sourceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, _, err := openMiner(*src, os.Stderr)
	if err != nil {
		return err
	}
	defer m.Close()
	st := m.IndexStats()
	fmt.Fprintf(w, "documents:        %d\n", m.NumDocuments())
	fmt.Fprintf(w, "phrases |P|:      %d\n", m.NumPhrases())
	fmt.Fprintf(w, "features |W|:     %d\n", m.VocabSize())
	if st.Segments > 0 {
		fmt.Fprintf(w, "segments:         %d\n", st.Segments)
	}
	fmt.Fprintf(w, "list entries:     %d (%s, %.2f B/entry)\n", st.ListEntries, byteSize(st.ListBytes), st.BytesPerEntry)
	fmt.Fprintf(w, "postings:         %d (%s, %.2f B/posting)\n", st.Postings, byteSize(st.PostingBytes), st.BytesPerPosting)
	fmt.Fprintf(w, "compressed:       %t\n", st.Compressed)
	fmt.Fprintf(w, "mapped:           %t\n", st.Mapped)
	return nil
}
func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
