package par

import (
	"sync"
	"testing"
	"time"
)

func TestWorkerTimerAddDrain(t *testing.T) {
	wt := NewWorkerTimer(4)
	wt.Add(0, 5*time.Millisecond)
	wt.Add(0, 3*time.Millisecond)
	wt.Add(3, time.Second)
	wt.Add(-1, time.Hour) // out of range: dropped, not a panic
	wt.Add(4, time.Hour)

	busy := wt.Drain(make([]time.Duration, 4)).Busy
	want := []time.Duration{8 * time.Millisecond, 0, 0, time.Second}
	for i := range want {
		if busy[i] != want[i] {
			t.Fatalf("busy[%d] = %v, want %v", i, busy[i], want[i])
		}
	}
	// Drain resets the accumulators.
	busy = wt.Drain(busy).Busy
	for i, b := range busy {
		if b != 0 {
			t.Fatalf("after drain, busy[%d] = %v, want 0", i, b)
		}
	}
}

func TestWorkerTimerConcurrentAdds(t *testing.T) {
	const workers, adds = 8, 1000
	wt := NewWorkerTimer(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				wt.Add(w, time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	busy := wt.Drain(make([]time.Duration, workers)).Busy
	for w, b := range busy {
		if b != adds*time.Microsecond {
			t.Fatalf("worker %d busy = %v, want %v", w, b, adds*time.Microsecond)
		}
	}
}

// TestSetTimerCapturesLoopBusy installs a timer, runs timed loops, and
// checks every worker's accumulated busy time is sane: non-negative, and in
// total at least the serial floor of the timed body is attributed.
func TestSetTimerCapturesLoopBusy(t *testing.T) {
	wt := NewWorkerTimer(Workers())
	prev := SetTimer(wt)
	defer SetTimer(prev)

	var total int64
	var mu sync.Mutex
	ForChunked(1<<16, func(lo, hi int) {
		s := int64(0)
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		mu.Lock()
		total += s
		mu.Unlock()
	})
	const n = 1 << 16
	if want := int64(n) * (n - 1) / 2; total != want {
		t.Fatalf("timed loop altered results: sum = %d, want %d", total, want)
	}
	busy := wt.Drain(make([]time.Duration, Workers())).Busy
	var sum time.Duration
	for w, b := range busy {
		if b < 0 {
			t.Fatalf("worker %d negative busy %v", w, b)
		}
		sum += b
	}
	if sum == 0 {
		t.Fatal("no busy time recorded by timed ForChunked")
	}
}

func TestSetTimerNilUninstalls(t *testing.T) {
	wt := NewWorkerTimer(Workers())
	prev := SetTimer(wt)
	SetTimer(prev)
	ForChunked(1<<12, func(lo, hi int) {})
	busy := wt.Drain(make([]time.Duration, Workers())).Busy
	for w, b := range busy {
		if b != 0 {
			t.Fatalf("worker %d accumulated %v after uninstall", w, b)
		}
	}
}

func TestForCoarseTimed(t *testing.T) {
	wt := NewWorkerTimer(Workers())
	prev := SetTimer(wt)
	defer SetTimer(prev)

	hits := make([]int32, 64)
	ForCoarse(len(hits), func(i int) {
		hits[i]++
		time.Sleep(10 * time.Microsecond)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	busy := wt.Drain(make([]time.Duration, Workers())).Busy
	var sum time.Duration
	for _, b := range busy {
		sum += b
	}
	if sum < 64*10*time.Microsecond {
		t.Fatalf("ForCoarse busy %v, want >= %v", sum, 64*10*time.Microsecond)
	}
}

func TestDrainChunksTracksMax(t *testing.T) {
	wt := NewWorkerTimer(Workers())
	prev := SetTimer(wt)
	defer SetTimer(prev)

	// One slow iteration among fast ones: the max chunk must dominate the
	// mean, whatever granularity the scheduler timed at.
	ForCoarse(32, func(i int) {
		if i == 7 {
			time.Sleep(2 * time.Millisecond)
		}
	})
	s := wt.Drain(make([]time.Duration, Workers()))
	if s.Chunks < 1 {
		t.Fatalf("chunks = %d, want >= 1", s.Chunks)
	}
	if s.MaxChunk < 2*time.Millisecond {
		t.Fatalf("maxChunk = %v, want >= 2ms", s.MaxChunk)
	}
	var sum time.Duration
	for _, b := range s.Busy {
		sum += b
	}
	if s.MaxChunk > sum {
		t.Fatalf("maxChunk %v exceeds total busy %v", s.MaxChunk, sum)
	}
}

func TestDrainResetsChunkStats(t *testing.T) {
	defer SetWorkers(SetWorkers(2))
	wt := NewWorkerTimer(2)
	prev := SetTimer(wt)
	defer SetTimer(prev)

	ForChunked(1<<16, func(lo, hi int) { time.Sleep(time.Microsecond) })
	if s := wt.Drain(nil); s.Chunks == 0 || s.Regions != 1 {
		t.Fatalf("first Drain = %+v, want chunks and one region", s)
	}
	// Drain resets everything it reports.
	s := wt.Drain(make([]time.Duration, 2))
	if s.Chunks != 0 || s.MaxChunk != 0 || s.Regions != 0 {
		t.Fatalf("second Drain = %+v, want zeros", s)
	}
	for w, b := range s.Busy {
		if b != 0 {
			t.Fatalf("second Drain: worker %d busy %v", w, b)
		}
	}
}
