package sketch

import (
	"fmt"
	"time"
)

// Rotating slices time into fixed periods and keeps one conservative
// count-min sketch per period in a ring: Add lands in the current
// period's sketch, a windowed estimate sums the periods overlapping the
// window, and periods older than period*len(ring) are recycled in place.
// Windows are rounded up to whole periods (a "1h" window over 1m periods
// covers the 60-61 periods touching the last hour), which keeps every
// windowed estimate an upper bound of the true windowed count.
//
// Rotating is not safe for concurrent mutation; reads (EstimateWindow,
// WindowSlots) never mutate the ring, so the live tail serves them under
// the miner's read lock while Add runs under the write lock.
type Rotating struct {
	period time.Duration
	slots  []periodSlot
	// OnEvict, when non-nil, fires with a ring index just before Add
	// recycles that slot for a new period — the hook the live tail uses to
	// clear its per-period phrase candidate map in lockstep.
	OnEvict func(slot int)
}

// periodSlot is one ring entry: the epoch (period number since the Unix
// epoch) it currently holds, and that period's sketch. epoch < 0 marks an
// empty slot.
type periodSlot struct {
	epoch int64
	cm    *CountMin
}

// NewRotating creates a ring of periods conservative-update sketches of
// the given dimensions, each covering one period of time.
func NewRotating(width, depth int, period time.Duration, periods int) (*Rotating, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sketch: rotation period must be positive, got %v", period)
	}
	if periods < 1 {
		return nil, fmt.Errorf("sketch: period count must be positive, got %d", periods)
	}
	r := &Rotating{period: period, slots: make([]periodSlot, periods)}
	for i := range r.slots {
		cm, err := NewConservative(width, depth)
		if err != nil {
			return nil, err
		}
		r.slots[i] = periodSlot{epoch: -1, cm: cm}
	}
	return r, nil
}

// Bytes reports the ring's summed sketch footprint.
func (r *Rotating) Bytes() int64 {
	var n int64
	for i := range r.slots {
		n += r.slots[i].cm.Bytes()
	}
	return n
}

// epochOf maps an instant to its period number.
func (r *Rotating) epochOf(t time.Time) int64 {
	return t.UnixNano() / int64(r.period)
}

// Advance returns the ring index holding now's period, recycling the slot
// (and firing OnEvict) if it still holds an expired period. Mutates the
// ring; callers hold the write side.
func (r *Rotating) Advance(now time.Time) int {
	epoch := r.epochOf(now)
	i := int(epoch % int64(len(r.slots)))
	if r.slots[i].epoch != epoch {
		if r.slots[i].epoch >= 0 && r.OnEvict != nil {
			r.OnEvict(i)
		}
		r.slots[i].cm.Reset()
		r.slots[i].epoch = epoch
	}
	return i
}

// Add records n occurrences of the pre-hashed key in now's period and
// returns the ring index it landed in.
func (r *Rotating) Add(now time.Time, h uint64, n uint64) int {
	i := r.Advance(now)
	r.slots[i].cm.AddHash(h, n)
	return i
}

// WindowSlots lists the ring indices whose periods overlap [now-window,
// now], oldest first. Read-only: expired slots are simply excluded, not
// recycled. A non-positive window selects only the current period.
func (r *Rotating) WindowSlots(now time.Time, window time.Duration) []int {
	lo, hi := r.windowEpochs(now, window)
	out := make([]int, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		i := int(e % int64(len(r.slots)))
		if r.slots[i].epoch == e {
			out = append(out, i)
		}
	}
	return out
}

// windowEpochs bounds the epochs overlapping [now-window, now], clamped
// to the ring's capacity so a wrapped slot is never double-counted.
func (r *Rotating) windowEpochs(now time.Time, window time.Duration) (lo, hi int64) {
	hi = r.epochOf(now)
	if window <= 0 {
		return hi, hi
	}
	lo = r.epochOf(now.Add(-window))
	if oldest := hi - int64(len(r.slots)) + 1; lo < oldest {
		lo = oldest
	}
	return lo, hi
}

// EstimateWindow upper-bounds the pre-hashed key's count over [now-window,
// now]: the sum of the overlapping periods' estimates, each itself a
// never-undercounting estimate.
func (r *Rotating) EstimateWindow(now time.Time, window time.Duration, h uint64) uint64 {
	var sum uint64
	for _, i := range r.WindowSlots(now, window) {
		sum += r.slots[i].cm.EstimateHash(h)
	}
	return sum
}

// Reset empties every period.
func (r *Rotating) Reset() {
	for i := range r.slots {
		r.slots[i].cm.Reset()
		r.slots[i].epoch = -1
	}
}
