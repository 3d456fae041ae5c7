// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It is the substrate on which the simulated cluster
// (fabric, transports, UPC runtime) executes: simulated entities are
// processes (coroutines) or continuation-mode threads that advance a
// shared virtual clock by sleeping, waiting on completions, and
// contending for resources.
//
// The kernel runs exactly one process at a time and orders simultaneous
// events by insertion sequence, so a simulation is fully deterministic
// for a given program and seed.
package sim

import "fmt"

// Time is a point in virtual time, measured in picoseconds.
//
// Picosecond resolution lets bandwidth terms (picoseconds per byte) be
// expressed as exact integers: 250 MB/s is 4000 ps/byte, 2 GB/s is
// 500 ps/byte. An int64 of picoseconds spans over 100 simulated days,
// far beyond any experiment in this repository.
type Time int64

// Duration is an elapsed span of virtual time, also in picoseconds.
// It is a separate name purely for documentation; arithmetic mixes
// freely with Time.
type Duration = Time

// Common units.
const (
	Ps  Time = 1
	Ns  Time = 1000 * Ps
	Us  Time = 1000 * Ns
	Ms  Time = 1000 * Us
	Sec Time = 1000 * Ms
)

// Usecs reports t as a floating-point number of microseconds.
func (t Time) Usecs() float64 { return float64(t) / float64(Us) }

// Msecs reports t as a floating-point number of milliseconds.
func (t Time) Msecs() float64 { return float64(t) / float64(Ms) }

// Secs reports t as a floating-point number of seconds.
func (t Time) Secs() float64 { return float64(t) / float64(Sec) }

// String formats t with an adaptive unit, e.g. "12.345us".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Ns:
		return fmt.Sprintf("%dps", int64(t))
	case t < Us:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Ns))
	case t < Ms:
		return fmt.Sprintf("%.3fus", t.Usecs())
	case t < Sec:
		return fmt.Sprintf("%.3fms", t.Msecs())
	default:
		return fmt.Sprintf("%.6fs", t.Secs())
	}
}

// PerByte converts a bandwidth in megabytes per second into a
// serialization cost in picoseconds per byte.
func PerByte(mbPerSec float64) Time {
	if mbPerSec <= 0 {
		return 0
	}
	return Time(1e6 / mbPerSec)
}

// BytesTime is the serialization time of n bytes at perByte ps/byte.
func BytesTime(n int, perByte Time) Time {
	return Time(int64(n) * int64(perByte))
}
