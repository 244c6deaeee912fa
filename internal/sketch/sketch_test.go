package sketch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestNewRejectsBadDimensions(t *testing.T) {
	for _, tc := range []struct{ w, d int }{{0, 4}, {-1, 4}, {16, 0}, {16, -2}} {
		if _, err := newSketch(tc.w, tc.d, false); err == nil {
			t.Errorf("newSketch(%d, %d, false): want error", tc.w, tc.d)
		}
		if _, err := NewConservative(tc.w, tc.d); err == nil {
			t.Errorf("NewConservative(%d, %d): want error", tc.w, tc.d)
		}
	}
}

func TestExactWhenSparse(t *testing.T) {
	// Far fewer keys than width: every estimate should be exact for both
	// variants (collisions are possible but this fixed key set has none —
	// the test is deterministic).
	for _, conservative := range []bool{false, true} {
		s, err := newSketch(1024, 4, conservative)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			s.Add(fmt.Sprintf("key-%d", i), uint64(i+1))
		}
		for i := 0; i < 20; i++ {
			if got, want := s.Estimate(fmt.Sprintf("key-%d", i)), uint64(i+1); got != want {
				t.Errorf("conservative=%t: Estimate(key-%d) = %d, want %d", conservative, i, got, want)
			}
		}
		if got := s.Estimate("never-added"); got != 0 {
			t.Errorf("conservative=%t: Estimate(never-added) = %d, want 0", conservative, got)
		}
	}
}

// TestNeverUndercounts is the sketch's hard guarantee: under heavy
// deliberate collision pressure (width 32, thousands of keys) every
// estimate stays >= the true count, and within the ErrorBound of it save
// for the documented exp(-depth) tail — checked exactly because the
// stream is deterministic.
func TestNeverUndercounts(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		s, err := newSketch(32, 4, conservative)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		truth := make(map[string]uint64)
		for i := 0; i < 5000; i++ {
			key := fmt.Sprintf("key-%d", rng.Intn(400))
			n := uint64(rng.Intn(3) + 1)
			s.Add(key, n)
			truth[key] += n
		}
		var over int
		bound := s.ErrorBound()
		for key, want := range truth {
			got := s.Estimate(key)
			if got < want {
				t.Fatalf("conservative=%t: Estimate(%s) = %d undercounts true %d", conservative, key, got, want)
			}
			if got > want+bound {
				over++
			}
		}
		// Pr[overshoot] <= exp(-4) ~ 1.8% per key; this fixed stream keeps
		// well under 10% of the 400 keys.
		if over > len(truth)/10 {
			t.Errorf("conservative=%t: %d/%d estimates exceed the error bound %d", conservative, over, len(truth), bound)
		}
	}
}

// TestConservativeNoLooser pins the point of the conservative variant:
// on the same stream its estimates are never above the plain sketch's.
func TestConservativeNoLooser(t *testing.T) {
	plain, _ := newSketch(64, 4, false)
	cons, _ := NewConservative(64, 4)
	rng := rand.New(rand.NewSource(11))
	keys := make(map[string]bool)
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("key-%d", rng.Intn(500))
		plain.Add(key, 1)
		cons.Add(key, 1)
		keys[key] = true
	}
	for key := range keys {
		if c, p := cons.Estimate(key), plain.Estimate(key); c > p {
			t.Fatalf("conservative Estimate(%s) = %d exceeds plain %d", key, c, p)
		}
	}
}

func TestResetAndTotal(t *testing.T) {
	s, _ := NewConservative(64, 3)
	s.Add("a", 5)
	s.Add("b", 7)
	if got := s.Total(); got != 12 {
		t.Fatalf("Total = %d, want 12", got)
	}
	s.Reset()
	if got := s.Total(); got != 0 {
		t.Fatalf("Total after Reset = %d, want 0", got)
	}
	if got := s.Estimate("a"); got != 0 {
		t.Fatalf("Estimate after Reset = %d, want 0", got)
	}
}

func TestPairHashAsymmetric(t *testing.T) {
	a, b := HashKey("alpha"), HashKey("beta")
	if PairHash(a, b) == PairHash(b, a) {
		t.Fatal("PairHash must distinguish (a,b) from (b,a)")
	}
	if PairHash(a, b) != PairHash(a, b) {
		t.Fatal("PairHash must be deterministic")
	}
}

func TestRotatingWindowCounts(t *testing.T) {
	r, err := NewRotating(256, 4, time.Minute, 10)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	h := HashKey("phrase")
	// One occurrence per minute for 5 minutes.
	for i := 0; i < 5; i++ {
		r.Add(base.Add(time.Duration(i)*time.Minute), h, 1)
	}
	now := base.Add(4 * time.Minute)
	if got := r.EstimateWindow(now, 2*time.Minute, h); got != 3 {
		// Whole-period rounding: a 2m window over 1m periods covers 3 periods.
		t.Errorf("EstimateWindow(2m) = %d, want 3", got)
	}
	if got := r.EstimateWindow(now, time.Hour, h); got != 5 {
		t.Errorf("EstimateWindow(1h) = %d, want 5", got)
	}
	if got := r.EstimateWindow(now, 0, h); got != 1 {
		t.Errorf("EstimateWindow(0) = %d, want 1 (current period only)", got)
	}
}

func TestRotatingRecyclesOldPeriods(t *testing.T) {
	r, err := NewRotating(256, 4, time.Minute, 3)
	if err != nil {
		t.Fatal(err)
	}
	var evicted []int
	r.OnEvict = func(slot int) { evicted = append(evicted, slot) }
	base := time.Unix(1_700_000_000, 0).Truncate(time.Minute)
	h := HashKey("phrase")
	r.Add(base, h, 1)
	// 3 minutes later the ring has wrapped; the old period's count is gone.
	later := base.Add(3 * time.Minute)
	r.Add(later, h, 1)
	if len(evicted) != 1 {
		t.Fatalf("OnEvict fired %d times, want 1", len(evicted))
	}
	if got := r.EstimateWindow(later, time.Hour, h); got != 1 {
		t.Errorf("EstimateWindow after wrap = %d, want 1 (old period recycled)", got)
	}
	r.Reset()
	if got := r.EstimateWindow(later, time.Hour, h); got != 0 {
		t.Errorf("EstimateWindow after Reset = %d, want 0", got)
	}
}
