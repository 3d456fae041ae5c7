package telemetry

import (
	"errors"
	"strings"
	"testing"

	"xlupc/internal/sim"
)

// stateSpan records one finished state span.
func stateSpan(tel *Telemetry, thread int, s State, start, end sim.Time) {
	sp := tel.StartSpan("op", thread, 0, start)
	sp.SetState(s)
	sp.Finish(end)
}

func TestParaverIntervals(t *testing.T) {
	tel := New()
	stateSpan(tel, 0, StateCompute, 10*sim.Us, 25*sim.Us)
	stateSpan(tel, 0, StateGetWait, 25*sim.Us, 40*sim.Us)
	tel.StartSpan("get", 1, 0, 0).Finish(5 * sim.Us) // split-phase: no state
	ivs := tel.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[0].State != StateCompute || ivs[0].Dur() != 15*sim.Us {
		t.Fatalf("first interval %+v", ivs[0])
	}
	if ivs[1].State != StateGetWait || ivs[1].Dur() != 15*sim.Us {
		t.Fatalf("second interval %+v", ivs[1])
	}
}

// A disabled layer must give an empty Paraver view and write no records.
func TestParaverNilIsSafe(t *testing.T) {
	var tel *Telemetry
	s := tel.StartSpan("get", 0, 0, 0)
	s.SetState(StateGetWait) // must not panic
	s.Finish(10)
	var sb strings.Builder
	if err := tel.WritePRV(&sb); err != nil || sb.Len() != 0 {
		t.Fatal("nil WritePRV must write nothing")
	}
	if len(tel.Intervals()) != 0 || len(tel.TotalByState()) != 0 || len(tel.Profiles()) != 0 {
		t.Fatal("nil Paraver view must be empty")
	}
	if tel.MaxInterval(StateGetWait) != (Interval{}) {
		t.Fatal("nil MaxInterval must be zero")
	}
}

func TestParaverZeroLengthSpansDropped(t *testing.T) {
	tel := New()
	stateSpan(tel, 0, StateCompute, 5*sim.Us, 5*sim.Us)
	if len(tel.Intervals()) != 0 {
		t.Fatal("zero-length interval kept")
	}
}

func TestParaverTotalByState(t *testing.T) {
	tel := New()
	stateSpan(tel, 0, StateGetWait, 0, 10*sim.Us)
	stateSpan(tel, 1, StateGetWait, 0, 5*sim.Us)
	stateSpan(tel, 1, StateCompute, 5*sim.Us, 8*sim.Us)
	tot := tel.TotalByState()
	if tot[StateGetWait] != 15*sim.Us || tot[StateCompute] != 3*sim.Us {
		t.Fatalf("totals %+v", tot)
	}
}

func TestParaverMaxInterval(t *testing.T) {
	tel := New()
	stateSpan(tel, 0, StateGetWait, 0, 3*sim.Us)
	stateSpan(tel, 1, StateGetWait, 10*sim.Us, 20*sim.Us)
	best := tel.MaxInterval(StateGetWait)
	if best.Thread != 1 || best.Dur() != 10*sim.Us {
		t.Fatalf("max interval %+v", best)
	}
	if tel.MaxInterval(StateBarrier).Dur() != 0 {
		t.Fatal("expected zero interval for unseen state")
	}
}

func TestParaverProfilesSorted(t *testing.T) {
	tel := New()
	stateSpan(tel, 0, StateCompute, 0, 30*sim.Us)
	stateSpan(tel, 0, StateGetWait, 30*sim.Us, 40*sim.Us)
	ps := tel.Profiles()
	if len(ps) != 2 || ps[0].State != StateCompute || ps[1].State != StateGetWait {
		t.Fatalf("profiles %+v", ps)
	}
	if ps[0].Share < 0.74 || ps[0].Share > 0.76 {
		t.Fatalf("share %v", ps[0].Share)
	}
}

func TestWritePRVFormat(t *testing.T) {
	tel := New()
	stateSpan(tel, 2, StateBarrier, 5*sim.Us, 7*sim.Us)
	var sb strings.Builder
	if err := tel.WritePRV(&sb); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "1:2:5000000:7000000:barrier\n"; got != want {
		t.Fatalf("records %q, want %q", got, want)
	}
}

// Records that start together keep the order their spans finished in,
// not the order they started in.
func TestWritePRVTiesKeepFinishOrder(t *testing.T) {
	tel := New()
	a := tel.StartSpan("get", 0, 0, 0)
	a.SetState(StateGetWait)
	b := tel.StartSpan("barrier", 1, 0, 0)
	b.SetState(StateBarrier)
	stateSpan(tel, 2, StateCompute, 0, 1*sim.Us) // finishes first, started last
	b.Finish(2 * sim.Us)
	a.Finish(2 * sim.Us)
	var sb strings.Builder
	if err := tel.WritePRV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "1:2:0:1000000:compute\n1:1:0:2000000:barrier\n1:0:0:2000000:get-wait\n"
	if sb.String() != want {
		t.Fatalf("records\n%s\nwant\n%s", sb.String(), want)
	}
}

func TestStateString(t *testing.T) {
	if StateGetWait.String() != "get-wait" || StateCompute.String() != "compute" {
		t.Fatal("state names wrong")
	}
	if State(99).String() != "state(99)" {
		t.Fatal("unknown state name wrong")
	}
}

// failAfterWriter fails every write after the first n — covering disk
// full midway through the records, not just at the first one.
type failAfterWriter struct{ n int }

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("device full")
	}
	w.n--
	return len(p), nil
}

func TestWritePRVPropagatesWriteErrors(t *testing.T) {
	tel := New()
	stateSpan(tel, 0, StateCompute, 0, 10*sim.Us)
	stateSpan(tel, 1, StateGetWait, 5*sim.Us, 20*sim.Us)
	stateSpan(tel, 0, StateBarrier, 10*sim.Us, 15*sim.Us)
	for i := 0; i < 3; i++ {
		if err := tel.WritePRV(&failAfterWriter{n: i}); err == nil {
			t.Fatalf("write failure at record %d was dropped", i)
		}
	}
	if err := tel.WritePRV(&failAfterWriter{n: 3}); err != nil {
		t.Fatal(err)
	}
}
