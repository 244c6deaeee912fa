package topk

import "sync"

// Pool is a bounded worker pool for query-time fan-out: per-keyword list
// preparation and multi-query batches run through it. The bound caps the
// EXTRA goroutines the pool spawns — it never blocks waiting for a slot,
// so a task that cannot acquire one runs inline on the submitting
// goroutine. Total concurrency is therefore cap + (number of concurrent
// callers): callers keep their own goroutine's worth of progress, and
// nested use (a batch task fanning out its own per-keyword preparation)
// is deadlock-free by construction — under contention nested work simply
// degrades to the caller's sequential path.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool allowing up to workers concurrent tasks (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Run executes every task and returns when all have completed. Tasks run
// concurrently up to the pool bound; the remainder run inline in submission
// order. Tasks must confine panics (a panicking task crashes the process,
// as an unhandled panic in any goroutine does).
func (p *Pool) Run(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	var wg sync.WaitGroup
	for _, task := range tasks {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(fn func()) {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				fn()
			}(task)
		default:
			task()
		}
	}
	wg.Wait()
}

// RunN invokes fn(i) for i in [0, n) through the pool, a convenience for
// index-addressed fan-out (results land in caller-owned slots, no locking
// needed).
func (p *Pool) RunN(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	tasks := make([]func(), n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func() { fn(i) }
	}
	p.Run(tasks...)
}
