package corpus

import (
	"fmt"
	"strings"
	"sync"
)

// Operator aggregates per-feature document collections into one
// sub-collection (Eq. 2 of the paper).
type Operator uint8

const (
	// OpAND selects documents containing every query feature
	// (intersection of docs(D, qi)).
	OpAND Operator = iota
	// OpOR selects documents containing at least one query feature
	// (union of docs(D, qi)).
	OpOR
)

// String renders the operator as in the paper ("AND" / "OR").
func (o Operator) String() string {
	switch o {
	case OpAND:
		return "AND"
	case OpOR:
		return "OR"
	default:
		return fmt.Sprintf("Operator(%d)", uint8(o))
	}
}

// Query is the paper's Q = [{q1..qr}, O]: a set of features (keywords or
// facet features) plus an aggregation operator. It implicitly defines the
// sub-collection D'.
type Query struct {
	Features []string
	Op       Operator
}

// NewQuery builds a query from features, deduplicating while preserving
// first-occurrence order (duplicate keywords would double-count scores in
// the sum-form aggregations).
func NewQuery(op Operator, features ...string) Query {
	seen := make(map[string]struct{}, len(features))
	var out []string
	for _, f := range features {
		if f == "" {
			continue
		}
		if _, dup := seen[f]; dup {
			continue
		}
		seen[f] = struct{}{}
		out = append(out, f)
	}
	return Query{Features: out, Op: op}
}

// String renders the query as `a AND b AND c`.
func (q Query) String() string {
	return strings.Join(q.Features, " "+q.Op.String()+" ")
}

// Validate reports structural problems with the query.
func (q Query) Validate() error {
	if len(q.Features) == 0 {
		return fmt.Errorf("corpus: empty query")
	}
	if q.Op != OpAND && q.Op != OpOR {
		return fmt.Errorf("corpus: invalid operator %d", q.Op)
	}
	return nil
}

// Select materializes D' for the query per Equation 2: the union (OR) or
// intersection (AND) of the per-feature document lists.
func (ix *Inverted) Select(q Query) ([]DocID, error) {
	return ix.SelectInto(nil, q)
}

// SelectInto is Select appending D' to dst (which must not alias any
// posting list), so callers with a reusable buffer avoid the per-query
// materialization allocation.
func (ix *Inverted) SelectInto(dst []DocID, q Query) ([]DocID, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	lists := make([][]DocID, len(q.Features))
	for i, f := range q.Features {
		var err error
		if lists[i], err = ix.Docs(f); err != nil {
			return nil, err
		}
	}
	if q.Op == OpAND {
		return IntersectInto(dst, lists...), nil
	}
	return UnionInto(dst, lists...), nil
}

// selectScratch recycles the buffers SelectCount materializes into.
var selectScratch = sync.Pool{New: func() any { return new(selectBufs) }}

type selectBufs struct {
	docs  []DocID
	spare []DocID
	lists [][]DocID
}

// SelectCount reports |D'| for the query. Single-feature queries and
// two-feature AND queries are answered without materializing D' at all;
// the remaining shapes fold pairwise through two pooled ping-pong buffers
// (not the k-way wrappers, whose internal intermediates would allocate per
// call), so steady-state callers — result resolution computes only the
// sub-collection size — allocate nothing.
func (ix *Inverted) SelectCount(q Query) (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if len(q.Features) == 1 {
		// DocFreq answers from the directory on a block-backed index, so
		// single-keyword resolution never decodes a posting list.
		return ix.DocFreq(q.Features[0]), nil
	}
	if q.Op == OpAND && len(q.Features) == 2 {
		a, err := ix.Docs(q.Features[0])
		if err != nil {
			return 0, err
		}
		b, err := ix.Docs(q.Features[1])
		if err != nil {
			return 0, err
		}
		return IntersectCount2(a, b), nil
	}
	bufs := selectScratch.Get().(*selectBufs)
	defer selectScratch.Put(bufs)
	if cap(bufs.lists) < len(q.Features) {
		bufs.lists = make([][]DocID, len(q.Features))
	}
	lists := bufs.lists[:len(q.Features)]
	for i, f := range q.Features {
		var err error
		if lists[i], err = ix.Docs(f); err != nil {
			for j := range lists {
				lists[j] = nil
			}
			return 0, err
		}
	}
	if q.Op == OpAND {
		// Smallest-first keeps intermediates shrinking fast.
		for i := 1; i < len(lists); i++ {
			for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
				lists[j], lists[j-1] = lists[j-1], lists[j]
			}
		}
	}
	combine2 := Union2Into
	if q.Op == OpAND {
		combine2 = Intersect2Into
	}
	acc := combine2(bufs.docs[:0], lists[0], lists[1])
	spare := bufs.spare
	for _, l := range lists[2:] {
		if q.Op == OpAND && len(acc) == 0 {
			break
		}
		spare = combine2(spare[:0], acc, l)
		acc, spare = spare, acc
	}
	// Hand the (possibly grown) backing arrays to the pool, whichever
	// role they ended up in.
	bufs.docs, bufs.spare = acc, spare
	for i := range lists {
		lists[i] = nil // do not retain posting lists in the pool
	}
	return len(acc), nil
}
