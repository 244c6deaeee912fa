package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"phrasemine"
	"phrasemine/bench/workload"
	"phrasemine/internal/core"
	"phrasemine/internal/corpus"
	"phrasemine/internal/plist"
	"phrasemine/internal/server"
	"phrasemine/internal/topk"
)

// replayBudget bounds the timed part of a replay; a sharded request costs
// milliseconds per rung, so its 2 000 would not fit a traced run.
const replayBudget = 3 * time.Second

// rungs, outermost first. A workload's replay descends as far as its
// engine can be called layer by layer from outside: the sharded engine's
// gather, the cached server and the delta path stop at miner.mine.
var rungs = []string{"server.handle", "miner.mine", "core.query", "topk.run", "plist.scan", "bitpack.decode"}

// span is one rung of one replayed request.
type span struct {
	Trace  string             `json:"trace"`
	Name   string             `json:"name"`
	Parent string             `json:"parent,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// request is one parsed /mine body of the script.
type request struct {
	Keywords  []string `json:"keywords"`
	Op        string   `json:"op"`
	K         int      `json:"k"`
	Algorithm string   `json:"algorithm"`
	body      string
}

func (r request) query() corpus.Query {
	op := corpus.OpOR
	if r.Op == "AND" {
		op = corpus.OpAND
	}
	return corpus.NewQuery(op, phrasemine.NormalizeKeywords(r.Keywords)...)
}

// replay re-runs the head of a workload's request script in process, one
// timed call per rung per request (after one untimed pass over the rungs). The rungs of one request are separate
// executions of the same query at successively lower layers, not one
// nested execution — nothing inside the program is instrumented — so a
// rung's self time is its duration minus the duration of the rung below
// for the same request. It returns the median server.handle span in
// microseconds and appends every span to traceOut.
func (l *ladder) replay(sf scriptFile, traceOut string) float64 {
	ctx := context.Background()
	spec, ok := workload.SpecByName(sf.Workload)
	if !ok {
		must(fmt.Errorf("unknown workload %q in script", sf.Workload))
	}
	reqs := make([]request, len(sf.Requests))
	for i, body := range sf.Requests {
		must(json.Unmarshal([]byte(body), &reqs[i]))
		reqs[i].body = body
	}

	// The miner and server, opened as the workload's `serve` opens them.
	var miner *phrasemine.Miner
	var err error
	snap := l.path(sf.Fixture + ".snap")
	switch {
	case spec.Segments > 1:
		miner, err = phrasemine.OpenShardedMiner(l.path(sf.Fixture+".man"), 1)
	case spec.Mmap:
		miner, err = phrasemine.OpenMinerMapped(snap, 1)
	default:
		miner, err = phrasemine.LoadMinerFile(snap, 1)
	}
	must(err)
	defer miner.Close()
	must(miner.EnableLiveTail(phrasemine.TailConfig{}))
	if !spec.Static() {
		// The mean state between two flushes: half a batch pending.
		for _, w := range sf.Writes[:spec.FlushEvery/2] {
			var doc struct {
				Text string `json:"text"`
			}
			must(json.Unmarshal([]byte(w), &doc))
			must(miner.Add(phrasemine.Document{Text: doc.Text}))
		}
	}
	opts := server.Options{}
	if spec.CacheOff {
		opts.CacheSize = -1
	}

	// Below the miner only the monolithic, compressed, static engine can
	// be driven layer by layer through public calls.
	depth := 2
	var ix *core.Index
	frames := map[string][]frame{}
	if spec.Mmap {
		depth = len(rungs)
		ix, err = core.OpenSnapshotFile(snap, 1)
		must(err)
		defer ix.Close()
	}
	scratch := topk.NewScratch(1 << 16)

	// Lazy structures are set-up cost, not request cost: touch every
	// distinct request once before timing, through a server of its own, so
	// that the timed one starts with an empty cache. (The workload's sweep
	// leaves the last 1 024 of its 4 096 keys cached; the script's head
	// cannot reproduce that, and a replay that starts cold says so.)
	seen := map[string]bool{}
	warm := server.New(miner, opts)
	for _, r := range reqs {
		if !seen[r.body] {
			seen[r.body] = true
			serve(warm, http.MethodPost, "/mine", r.body)
		}
	}
	srv := server.New(miner, opts)

	var spans []span
	durs := make([][]float64, len(rungs)) // per rung, per replayed request, ns
	origin := time.Now()
	timed := func(id string, rung int, counts map[string]float64, fn func()) {
		t0 := time.Since(origin)
		fn()
		t1 := time.Since(origin)
		parent := ""
		if rung > 0 {
			parent = rungs[rung-1]
		}
		spans = append(spans, span{Trace: id, Name: rungs[rung], Parent: parent, Start: int64(t0), End: int64(t1), Counts: counts})
		durs[rung] = append(durs[rung], float64(t1-t0))
	}
	replayed := 0
	var stats topk.NRAStats
	cur := plist.NewBlockCursor(plist.BlockList{})
	for i, r := range reqs {
		if time.Since(origin) > replayBudget {
			break
		}
		replayed++
		id := fmt.Sprintf("%s-r%d", sf.Workload, i)
		q := r.query()
		lists := make([]plist.BlockList, len(q.Features))
		if depth > 2 {
			for j, f := range q.Features {
				lists[j], err = ix.Blocks.List(f)
				must(err)
				if frames[f] == nil {
					entries, err := ix.Blocks.DecodeList(f)
					must(err)
					frames[f] = idFrames(entries)
				}
			}
		}
		respCounts, runCounts := map[string]float64{}, map[string]float64{}
		steps := []func(){
			func() {
				rec := serve(srv, http.MethodPost, "/mine", r.body)
				respCounts["resp_bytes"] = float64(rec.Body.Len())
				respCounts["cached"] = 0
				if strings.Contains(rec.Body.String(), `"cached":true`) {
					respCounts["cached"] = 1
				}
			},
			func() {
				_, err := miner.MineDetailed(ctx, r.Keywords, publicOp(q.Op), phrasemine.QueryOptions{K: r.K, Algorithm: phrasemine.Algorithm(r.Algorithm)})
				must(err)
			},
			func() {
				res, _, err := ix.QueryNRA(q, topk.NRAOptions{K: r.K, Fraction: 1})
				must(err)
				_, err = ix.Resolve(res, q)
				must(err)
			},
			func() {
				cursors, blk := scratch.BlockCursors(len(lists))
				for j := range lists {
					blk[j].Reset(lists[j])
					cursors[j] = &blk[j]
				}
				_, stats, err = topk.NRAScratch(cursors, topk.NRAOptions{K: r.K, Op: q.Op}, scratch)
				must(err)
				runCounts["entries_read"], runCounts["list_entries"] = 0, 0
				for j := range stats.EntriesRead {
					runCounts["entries_read"] += float64(stats.EntriesRead[j])
					runCounts["list_entries"] += float64(stats.ListLens[j])
				}
			},
			// The scan and the bit-unpack of exactly the entries NRA consumed.
			func() {
				for j := range lists {
					cur.Reset(lists[j])
					for n := 0; n < stats.EntriesRead[j]; n++ {
						cur.Next()
					}
				}
			},
			func() {
				var vals [plist.BlockLen]uint32
				for j, f := range q.Features {
					for _, fr := range frames[f][:plist.NumBlocksFor(stats.EntriesRead[j])] {
						fr.decode(&vals)
					}
				}
			},
		}[:depth]
		counts := []map[string]float64{respCounts, nil, nil, runCounts, nil, nil}
		if !spec.CacheOff {
			// A cached server: an untimed pass would turn every request into
			// a hit. Time the handler as the script finds it, and the miner
			// only under a miss — a hit never reaches it.
			timed(id, 0, respCounts, steps[0])
			if respCounts["cached"] == 0 {
				timed(id, 1, nil, steps[1])
			} else {
				durs[1] = append(durs[1], math.NaN())
			}
			continue
		}
		// Once untimed, top to bottom, so that every rung of the timed pass
		// finds the request's lists as warm as every other rung does — the
		// first rung would otherwise pay the cache misses for all of them.
		for _, step := range steps {
			step()
		}
		for rung, step := range steps {
			timed(id, rung, counts[rung], step)
		}
	}

	if traceOut != "" {
		must(os.MkdirAll(filepath.Dir(traceOut), 0o755))
		f, err := os.OpenFile(traceOut, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		must(err)
		enc := json.NewEncoder(f)
		for _, s := range spans {
			must(enc.Encode(s))
		}
		must(f.Close())
	}

	// Self time per rung: its span minus the rung below, per request.
	fmt.Printf("-- replay of %s: %d of %d requests, %d rungs (us)\n", sf.Workload, replayed, len(reqs), depth)
	// A rung that did not run for a request (a cache hit has no miner.mine)
	// is NaN: it takes nothing from its parent and is left out of its own
	// statistics, which are then means, since the rungs' populations differ.
	selfSum := 0.0
	mean := func(v []float64) float64 {
		sum, n := 0.0, 0
		for _, x := range v {
			if !math.IsNaN(x) {
				sum += x
				n++
			}
		}
		return sum / float64(max(1, n)) / 1e3
	}
	for rung := 0; rung < depth; rung++ {
		self := make([]float64, len(durs[rung]))
		ran := 0
		for i, d := range durs[rung] {
			self[i] = d
			if !math.IsNaN(d) {
				ran++
			}
			if rung+1 < depth && !math.IsNaN(durs[rung+1][i]) {
				self[i] = max(0, d-durs[rung+1][i])
			}
		}
		// Weighted by how many requests reached the rung, so that the self
		// times add up to the mean server.handle span.
		selfMean := mean(self) * float64(ran) / float64(max(1, replayed))
		selfSum += selfMean
		fmt.Printf("   %-16s %5d spans   mean span %10.2f   self per request %10.2f\n", rungs[rung], ran, mean(durs[rung]), selfMean)
	}
	fmt.Printf("   self times sum to %.2f us, %.1f %% of the mean server.handle span\n", selfSum, 100*selfSum/mean(durs[0]))
	return workload.Median(durs[0]) / 1e3
}
