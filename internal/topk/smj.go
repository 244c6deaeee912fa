package topk

import (
	"context"
	"fmt"
	"slices"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
)

// SMJOptions configures Algorithm 2.
type SMJOptions struct {
	// K is the number of results to return.
	K int
	// Op selects AND or OR scoring.
	Op corpus.Operator
	// SecondOrderOR scores OR queries with the second-order truncation
	// of the inclusion-exclusion expansion (Eq. 11 of the paper, cut at
	// x >= 2) instead of the paper's default first-order form (Eq. 12):
	//
	//	S2(p) = Σ P(qi|p) − Σ_{i<j} P(qi|p)·P(qj|p)
	//
	// using the independence assumption for the pairwise joints. The
	// correction term is computed from the running sum S and sum of
	// squares Q as (S² − Q)/2. This is an SMJ-only ablation: the
	// corrected score is no longer a monotone sum of per-list terms, so
	// NRA's bound arithmetic does not carry over.
	SecondOrderOR bool
	// Ctx, when non-nil, cancels the run cooperatively: the merge loop
	// tests it once per cancelCheckInterval consumed entries and returns
	// ctx.Err() instead of exhausting the lists. A canceled run never
	// returns a partial answer.
	Ctx context.Context
}

// Validate reports configuration errors.
func (o SMJOptions) Validate() error {
	if o.K <= 0 {
		return fmt.Errorf("topk: K must be positive, got %d", o.K)
	}
	if o.Op != corpus.OpAND && o.Op != corpus.OpOR {
		return fmt.Errorf("topk: invalid operator %d", o.Op)
	}
	return nil
}

// SMJStats reports telemetry from one SMJ run.
type SMJStats struct {
	EntriesRead int // total entries consumed across lists
	Candidates  int // phrases that accumulated a score
}

// SMJScratch runs Algorithm 2 of the paper: a sort-merge join over
// phrase-ID-ordered list cursors (one per query feature). Unlike NRA it
// must consume every list completely before it can rank, but its
// per-entry work is a plain accumulation with no bound bookkeeping.
// Partial lists are a construction-time decision — truncate before
// ordering by ID.
//
// Because the merge delivers equal phrase IDs from all lists adjacently,
// scores are aggregated without any hash map: a running (phrase, sum,
// listCount) accumulator is flushed whenever the merge moves to a larger
// phrase ID.
//
// Merger state and the bounded selection heap live in the caller's
// scratch arena, which must not be shared with a concurrently executing
// query.
func SMJScratch(cursors []plist.Cursor, opt SMJOptions, s *Scratch) ([]Result, SMJStats, error) {
	if err := opt.Validate(); err != nil {
		return nil, SMJStats{}, err
	}
	if len(cursors) == 0 {
		return nil, SMJStats{}, fmt.Errorf("topk: no lists given")
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, SMJStats{}, err
	}
	m := s.lt.reset(cursors)

	r := len(cursors)
	var stats SMJStats

	// top is a size-K min-heap over (score, id): the bounded selection
	// behind the paper's O(lr + k log(lr)) SMJ complexity. worse reports
	// whether a ranks below b in the final ordering (lower score, or
	// equal score with larger ID).
	worse := func(a, b scored) bool {
		if a.score != b.score {
			return a.score < b.score
		}
		return a.id > b.id
	}
	top := s.top[:0]
	heapDown := func(i int) {
		for {
			l, rr, smallest := 2*i+1, 2*i+2, i
			if l < len(top) && worse(top[l], top[smallest]) {
				smallest = l
			}
			if rr < len(top) && worse(top[rr], top[smallest]) {
				smallest = rr
			}
			if smallest == i {
				return
			}
			top[i], top[smallest] = top[smallest], top[i]
			i = smallest
		}
	}
	offer := func(sc scored) {
		if len(top) < opt.K {
			top = append(top, sc)
			for i := len(top) - 1; i > 0; {
				parent := (i - 1) / 2
				if !worse(top[i], top[parent]) {
					break
				}
				top[i], top[parent] = top[parent], top[i]
				i = parent
			}
			return
		}
		if worse(sc, top[0]) {
			return
		}
		top[0] = sc
		heapDown(0)
	}

	var (
		curID    phrasedict.PhraseID
		curSum   float64
		curSumSq float64
		curCount int
		active   bool
	)
	flush := func() {
		if !active {
			return
		}
		stats.Candidates++
		// AND requires presence in every list (a missing list means
		// P(qi|p) = 0, zeroing the product of Eq. 7).
		if opt.Op == corpus.OpAND && curCount != r {
			return
		}
		score := curSum
		if opt.Op == corpus.OpOR && opt.SecondOrderOR {
			score -= (curSum*curSum - curSumSq) / 2
		}
		offer(scored{id: curID, score: score})
	}
	checkIn := cancelCheckInterval
	for {
		e, _, ok := m.next()
		if !ok {
			break
		}
		stats.EntriesRead++
		if checkIn--; checkIn == 0 {
			checkIn = cancelCheckInterval
			if err := ctxErr(opt.Ctx); err != nil {
				s.top = top
				return nil, stats, err
			}
		}
		if !active || e.Phrase != curID {
			flush()
			curID, curSum, curSumSq, curCount, active = e.Phrase, 0, 0, 0, true
		}
		sc := entryScore(opt.Op, e.Prob)
		curSum += sc
		curSumSq += sc * sc
		curCount++
	}
	s.top = top // retain the (possibly grown) buffer for reuse
	if err := m.err(); err != nil {
		return nil, stats, err
	}
	flush()
	s.top = top

	// The heap is no longer needed once every candidate has been offered,
	// so sort its backing storage in place instead of copying it out.
	slices.SortFunc(top, func(a, b scored) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		default:
			return 0
		}
	})
	out := make([]Result, len(top))
	for i, sc := range top {
		out[i] = Result{Phrase: sc.id, Score: sc.score, Lower: sc.score, Upper: sc.score}
	}
	return out, stats, nil
}
