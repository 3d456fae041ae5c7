package telemetry

import (
	"fmt"
	"io"
	"sort"

	"xlupc/internal/sim"
)

// State is the Paraver thread state a span stands for: what its
// thread was doing for the whole span (§4.6 Field analysis). Only
// operations that hold their thread carry one — blocking remote GETs
// and PUTs, fences that wait, barriers, locks and modeled compute.
type State uint8

const (
	StateNone      State = iota // not a thread state (split-phase, atomic, alloc, ...)
	StateCompute                // modeled local computation
	StateGetWait                // blocked in a GET
	StatePut                    // issuing a PUT (initiator overhead)
	StateFenceWait              // waiting for PUT completions
	StateBarrier                // in the barrier
	StateLockWait               // acquiring a lock
	numStates
)

var stateNames = [numStates]string{
	"none", "compute", "get-wait", "put", "fence-wait", "barrier", "lock-wait",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// SetState marks the span as a thread-state interval.
func (s *Span) SetState(st State) {
	if s != nil {
		s.State = st
	}
}

// Interval is one closed per-thread state interval: a finished state
// span seen through the Paraver lens.
type Interval struct {
	Thread     int
	State      State
	Start, End sim.Time
}

// Dur is the interval's length.
func (iv Interval) Dur() sim.Time { return iv.End - iv.Start }

// Intervals returns the state intervals in the order their spans
// finished. Zero-length spans are not intervals.
func (t *Telemetry) Intervals() []Interval {
	if t == nil {
		return nil
	}
	out := make([]Interval, len(t.states))
	for i, s := range t.states {
		out[i] = Interval{Thread: s.Thread, State: s.State, Start: s.Start, End: s.End}
	}
	return out
}

// TotalByState sums interval durations per state across all threads.
func (t *Telemetry) TotalByState() map[State]sim.Time {
	out := make(map[State]sim.Time)
	for _, iv := range t.Intervals() {
		out[iv.State] += iv.Dur()
	}
	return out
}

// MaxInterval returns the longest interval of the given state, or a
// zero Interval if none exist.
func (t *Telemetry) MaxInterval(s State) Interval {
	var best Interval
	for _, iv := range t.Intervals() {
		if iv.State == s && iv.Dur() > best.Dur() {
			best = iv
		}
	}
	return best
}

// WritePRV emits the state intervals as Paraver-like state records,
// one per line:
//
//	1:<thread>:<start_ps>:<end_ps>:<state>
//
// sorted by start time; intervals that start together keep the order
// in which they finished. (Real .prv headers carry machine topology
// the simulation does not need; the record bodies follow the same
// shape.)
func (t *Telemetry) WritePRV(w io.Writer) error {
	ivs := t.Intervals()
	sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	for _, iv := range ivs {
		if _, err := fmt.Fprintf(w, "1:%d:%d:%d:%s\n", iv.Thread, iv.Start, iv.End, iv.State); err != nil {
			return err
		}
	}
	return nil
}

// Profile is a per-state share breakdown.
type Profile struct {
	State State
	Total sim.Time
	Share float64 // fraction of the sum over all states
}

// Profiles returns the state breakdown sorted by descending total.
func (t *Telemetry) Profiles() []Profile {
	totals := t.TotalByState()
	var sum sim.Time
	for _, d := range totals {
		sum += d
	}
	out := make([]Profile, 0, len(totals))
	for s, d := range totals {
		share := 0.0
		if sum > 0 {
			share = float64(d) / float64(sum)
		}
		out = append(out, Profile{State: s, Total: d, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].State < out[j].State
	})
	return out
}
