package trace

// Tests for the host-observability attachment points: the opaque observer
// slot, the StartPhase notification, and the process-wide factory.

import "testing"

type recordingObserver struct {
	names   []string
	indices []int
}

func (o *recordingObserver) PhaseStarted(name string, index int) {
	o.names = append(o.names, name)
	o.indices = append(o.indices, index)
}

func TestPhaseObserverNotified(t *testing.T) {
	r := NewRecorder()
	o := &recordingObserver{}
	r.SetObserver(o)
	if r.Observer() != o {
		t.Fatal("Observer() did not return the attached object")
	}
	r.StartPhase("bfs/level", 0)
	r.StartPhase("bfs/level", 1)
	r.StartPhase("stats/degrees", 0)
	want := []string{"bfs/level", "bfs/level", "stats/degrees"}
	if len(o.names) != len(want) {
		t.Fatalf("observed %d phases, want %d", len(o.names), len(want))
	}
	for i := range want {
		if o.names[i] != want[i] {
			t.Fatalf("phase %d = %q, want %q", i, o.names[i], want[i])
		}
	}
	if o.indices[1] != 1 || o.indices[2] != 0 {
		t.Fatalf("indices = %v, want [0 1 0]", o.indices)
	}
}

// TestObserverNonPhaseObserver: any value can ride on the recorder; only
// phaseObserver implementations get StartPhase callbacks.
func TestObserverNonPhaseObserver(t *testing.T) {
	r := NewRecorder()
	r.SetObserver("opaque payload")
	r.StartPhase("cc/iter", 0) // must not panic
	if got := r.Observer(); got != "opaque payload" {
		t.Fatalf("Observer() = %v", got)
	}
	r.SetObserver(nil)
	if r.Observer() != nil {
		t.Fatal("Observer() not cleared")
	}
}

func TestNilRecorderObserverSafe(t *testing.T) {
	var r *Recorder
	r.SetObserver(&recordingObserver{}) // must not panic
	if r.Observer() != nil {
		t.Fatal("nil recorder returned an observer")
	}
}

func TestObserverFactory(t *testing.T) {
	made := 0
	prev := SetObserverFactory(func() any {
		made++
		return &recordingObserver{}
	})
	defer SetObserverFactory(prev)

	r1 := NewRecorder()
	r2 := NewRecorder()
	if made != 2 {
		t.Fatalf("factory invoked %d times, want 2", made)
	}
	o1, ok := r1.Observer().(*recordingObserver)
	if !ok {
		t.Fatal("recorder missing factory observer")
	}
	r1.StartPhase("sv/round", 3)
	if len(o1.names) != 1 || o1.names[0] != "sv/round" {
		t.Fatalf("factory observer saw %v", o1.names)
	}
	if r1.Observer() == r2.Observer() {
		t.Fatal("recorders share one observer; factory must mint fresh ones")
	}

	// Restoring the previous factory stops attachment.
	SetObserverFactory(prev)
	if r := NewRecorder(); r.Observer() != nil && prev == nil {
		t.Fatal("observer attached after factory cleared")
	}
}
