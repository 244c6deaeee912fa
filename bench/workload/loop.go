package workload

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source of a load loop; tests inject a manual one.
type Clock interface {
	Now() time.Time
	// WaitUntil returns once Now() >= t.
	WaitUntil(t time.Time)
}

// WallClock is the real clock. WaitUntil sleeps to within spinMargin of
// the target and yields through the rest. The margin is this wide because
// an idle Go process sleeps in epoll_wait, whose timeout has millisecond
// granularity — a time.Sleep of 200 µs returns after 1 ms or more, longer
// than the gap between requests at 1 500 req/s — and because a virtual
// CPU that has halted takes a millisecond or two to be scheduled again.
type WallClock struct{}

const spinMargin = 5 * time.Millisecond

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now() }

// WaitUntil implements Clock.
func (WallClock) WaitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// Sample is one request of a load loop; times are offsets from the
// phase's start.
type Sample struct {
	Index int
	// Due is when the schedule wanted the request sent (open loop; equal
	// to Sent in a closed loop), Free when its connection finished the
	// previous request, Sent and Done when it actually left and returned.
	Due, Free, Sent, Done time.Duration
	OK                    bool
}

// OpenResult is an open-loop phase: what was sent, and how many scheduled
// requests were never sent because the phase ran out of time.
type OpenResult struct {
	Samples []Sample
	Unsent  int
}

// OpenLoop sends n requests on a fixed schedule — request i is due at
// start + i/rate — over conns connections, calling do(conn, i) for each,
// and records when each was due, sent and done. A request whose
// connection is still busy when it falls due is sent as soon as one frees
// up, and its latency still counts from the due time: a stall in the
// system delays every request scheduled during it, and a measurement from
// the send time would hide that (coordinated omission). Requests still
// unsent grace after the last due time are abandoned and counted.
func OpenLoop(clk Clock, start time.Time, rate float64, n, conns int, grace time.Duration, do func(conn, i int) bool) OpenResult {
	interval := time.Duration(float64(time.Second) / rate)
	deadline := start.Add(time.Duration(n)*interval + grace)
	var next atomic.Int64
	perConn := make([][]Sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			free := time.Duration(0)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if clk.Now().After(deadline) {
					return // this and every later request stay unsent
				}
				clk.WaitUntil(start.Add(due))
				sent := clk.Now().Sub(start)
				ok := do(c, i)
				done := clk.Now().Sub(start)
				perConn[c] = append(perConn[c], Sample{Index: i, Due: due, Free: free, Sent: sent, Done: done, OK: ok})
				free = done
			}
		}(c)
	}
	wg.Wait()
	var res OpenResult
	for _, s := range perConn {
		res.Samples = append(res.Samples, s...)
	}
	sort.Slice(res.Samples, func(i, j int) bool { return res.Samples[i].Index < res.Samples[j].Index })
	res.Unsent = n - len(res.Samples)
	return res
}

// ClosedLoop keeps conns connections busy for dur: each sends its next
// request as soon as the previous one returns. Request indices come from
// one shared counter, so the order of the script is kept.
func ClosedLoop(clk Clock, start time.Time, dur time.Duration, conns int, do func(conn, i int) bool) []Sample {
	var next atomic.Int64
	perConn := make([][]Sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				sent := clk.Now().Sub(start)
				if sent >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				ok := do(c, i)
				done := clk.Now().Sub(start)
				perConn[c] = append(perConn[c], Sample{Index: i, Due: sent, Free: sent, Sent: sent, Done: done, OK: ok})
			}
		}(c)
	}
	wg.Wait()
	var all []Sample
	for _, s := range perConn {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Index < all[j].Index })
	return all
}

// Window returns the part of the phase scheduled as requests [from, to):
// the samples in that index range, and as unsent the rest of the range
// (unsent requests are always the tail of the schedule).
func (r OpenResult) Window(from, to int) OpenResult {
	var w OpenResult
	for _, s := range r.Samples {
		if s.Index >= from && s.Index < to {
			w.Samples = append(w.Samples, s)
		}
	}
	w.Unsent = to - from - len(w.Samples)
	return w
}

// LatenciesFromDue returns each request's latency measured from its due
// time, in milliseconds, sorted. A failed request counts as +Inf — it
// misses any latency limit — and so does each of the unsent ones.
func (r OpenResult) LatenciesFromDue() []float64 {
	out := make([]float64, 0, len(r.Samples)+r.Unsent)
	for _, s := range r.Samples {
		if s.OK {
			out = append(out, float64(s.Done-s.Due)/float64(time.Millisecond))
		} else {
			out = append(out, inf)
		}
	}
	for i := 0; i < r.Unsent; i++ {
		out = append(out, inf)
	}
	sort.Float64s(out)
	return out
}

// Lateness returns, sorted and in milliseconds, how late the generator
// itself fired each request: the gap between the moment it could have
// sent (the later of the due time and its connection becoming free) and
// the moment it did. It is the load generator's own error, and a run
// whose p99 lateness exceeds a millisecond did not apply the stated load.
func (r OpenResult) Lateness() []float64 {
	out := make([]float64, 0, len(r.Samples))
	for _, s := range r.Samples {
		ready := s.Due
		if s.Free > ready {
			ready = s.Free
		}
		out = append(out, float64(s.Sent-ready)/float64(time.Millisecond))
	}
	sort.Float64s(out)
	return out
}

// BacklogGrowing reports whether requests were queueing up faster than
// they were served at the end of the phase: the median wait between due
// and sent in the last quarter of the schedule is both more than ten
// request intervals and more than 1.2x the third quarter's. A queue that
// a stall built and the system then drained does not trip it; a rate
// above capacity, where the wait grows linearly (1.4x between those
// quarters), does.
func (r OpenResult) BacklogGrowing(rate float64) bool {
	n := len(r.Samples) + r.Unsent
	if n < 8 {
		return false
	}
	wait := func(from, to int) float64 {
		var w []float64
		for _, s := range r.Samples {
			if s.Index >= from && s.Index < to {
				w = append(w, float64(s.Sent-s.Due))
			}
		}
		if len(w) == 0 {
			return inf // nothing in the window was even sent
		}
		return Median(w)
	}
	q3, q4 := wait(n/2, 3*n/4), wait(3*n/4, n)
	tenIntervals := 10 * float64(time.Second) / rate
	return q4 > tenIntervals && q4 > 1.2*q3
}
