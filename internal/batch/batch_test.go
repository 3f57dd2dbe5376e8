package batch

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestNewPlanStableDedupe(t *testing.T) {
	p, err := NewPlan([]int64{5, 9, 5, 2, 9, 5, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantSources := []int64{5, 9, 2, 0}
	if !reflect.DeepEqual(p.Sources, wantSources) {
		t.Fatalf("Sources = %v, want %v", p.Sources, wantSources)
	}
	wantLane := []int{0, 1, 0, 2, 1, 0, 3}
	if !reflect.DeepEqual(p.Lane, wantLane) {
		t.Fatalf("Lane = %v, want %v", p.Lane, wantLane)
	}
	if p.Occupancy() != 4 {
		t.Fatalf("Occupancy = %d, want 4", p.Occupancy())
	}
	if p.String() != "5,9,2,0" {
		t.Fatalf("String = %q, want %q", p.String(), "5,9,2,0")
	}
}

func TestNewPlanErrors(t *testing.T) {
	if _, err := NewPlan(nil, 10); err == nil {
		t.Error("empty source list: want error")
	}
	if _, err := NewPlan([]int64{10}, 10); err == nil {
		t.Error("out-of-range source: want error")
	}
	if _, err := NewPlan([]int64{-1}, 10); err == nil {
		t.Error("negative source: want error")
	}
	over := make([]int64, MaxLanes+1)
	for i := range over {
		over[i] = int64(i)
	}
	if _, err := NewPlan(over, 1000); err == nil {
		t.Errorf("%d unique sources: want error", MaxLanes+1)
	}
	if p, err := NewPlan(over[:MaxLanes], 1000); err != nil || p.Occupancy() != MaxLanes {
		t.Errorf("exactly %d unique sources should plan; got %v, err %v", MaxLanes, p, err)
	}
}

// TestNewPlanProperty: any source list with at most MaxLanes unique
// in-range entries (duplicates free) maps stably — lane order is first
// occurrence, every query's lane answers its source, and re-planning the
// same list reproduces the assignment bit-for-bit.
func TestNewPlanProperty(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		uniq := 1 + rng.Intn(MaxLanes)
		pool := rng.Perm(n)[:uniq]
		list := make([]int64, 1+rng.Intn(3*MaxLanes))
		for i := range list {
			list[i] = int64(pool[rng.Intn(uniq)])
		}
		p, err := NewPlan(list, n)
		if err != nil {
			t.Fatalf("trial %d: %v (list %v)", trial, err, list)
		}
		// Lane order is first occurrence.
		seen := map[int64]bool{}
		var firsts []int64
		for _, s := range list {
			if !seen[s] {
				seen[s] = true
				firsts = append(firsts, s)
			}
		}
		if !reflect.DeepEqual(p.Sources, firsts) {
			t.Fatalf("trial %d: Sources = %v, want first-occurrence order %v", trial, p.Sources, firsts)
		}
		// Every query maps to the lane owning its source.
		for i, s := range list {
			if p.Sources[p.Lane[i]] != s {
				t.Fatalf("trial %d: query %d (source %d) mapped to lane %d owning %d",
					trial, i, s, p.Lane[i], p.Sources[p.Lane[i]])
			}
		}
		// Stability: same list, same plan.
		again, err := NewPlan(list, n)
		if err != nil || !reflect.DeepEqual(p, again) {
			t.Fatalf("trial %d: replanning diverged: %v vs %v (err %v)", trial, p, again, err)
		}
	}
}

func TestParseSources(t *testing.T) {
	got, err := ParseSources(" 5,17 , 99,5", 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{5, 17, 99, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSources = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "5,,7", "abc", "5,x", "100", "-1", "5, 100"} {
		if _, err := ParseSources(bad, 100); err == nil {
			t.Errorf("ParseSources(%q): want error", bad)
		}
	}
}

func TestFormatSources(t *testing.T) {
	if got := (&Plan{Sources: []int64{3, 1, 2}}).String(); got != "3,1,2" {
		t.Fatalf("String = %q", got)
	}
	if got := (&Plan{}).String(); got != "" {
		t.Fatalf("String of no sources = %q, want empty", got)
	}
}
