//go:build go1.23

// The go1.23 constraint lets this file import iter while go.mod stays
// at go 1.22: it raises this one file's language version, so `go vet`
// (stdversion) accepts iter.Pull, and builds of dependent modules with
// -mod=mod (perfbench/run.sh) find no go.mod line to rewrite.

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a body written in ordinary blocking
// style, run as a coroutine that the kernel and the continuation code
// resume. Every blocking method is the same two steps — start the
// continuation form of the operation with the process's pre-bound
// wake callback, then suspend until that callback fires — so a process
// and a continuation-mode thread drive one implementation and schedule
// the same (time, seq) event stream. The wake resumes the coroutine
// inline, adding no event of its own. A Proc's methods may only be
// called from its own body.
type Proc struct {
	c Cont // name, diagnostics, and the handle the …C primitives take

	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	wakeFn func() // p.wake, bound once at spawn

	parked   bool   // suspended (or not yet started): a wake resumes it
	woken    bool   // a wake fired before the matching suspend
	panicked string // attributed panic message, set when the body panicked
}

// poisonPill unwinds a suspended process during Shutdown; the spawn
// wrapper recognises it and ends the coroutine without reporting a
// process panic.
type poisonPill struct{}

// procPanic is an already-attributed process panic travelling up
// through the process that resumed the panicking one, so the outer
// process re-raises it unchanged instead of claiming it.
type procPanic string

func (k *Kernel) spawn(prefix string, idx int, body func(p *Proc)) *Proc {
	k.procSeq++
	p := &Proc{
		c:      Cont{k: k, namePrefix: prefix, nameIdx: idx, seq: k.procSeq, state: "starting"},
		parked: true,
	}
	p.wakeFn = p.wake
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				switch v := r.(type) {
				case poisonPill:
				case procPanic:
					p.panicked = string(v)
				default:
					p.panicked = fmt.Sprintf("sim: process %q panicked at %v: %v", p.Name(), k.now, r)
				}
			}
			p.c.state = "finished"
			delete(k.procs, p)
		}()
		body(p)
	})
	k.procs[p] = struct{}{}
	k.schedule(k.now, p.wakeFn)
	return p
}

// wake is the process's continuation: it resumes a suspended process
// inline, or — when the operation completed before the process got to
// suspend — marks the coming suspend as already satisfied.
func (p *Proc) wake() {
	if !p.parked {
		p.woken = true
		return
	}
	p.parked = false
	k := p.c.k
	prev := k.running
	k.running = p
	p.next()
	k.running = prev
	if msg := p.panicked; msg != "" {
		p.panicked = ""
		if prev != nil {
			panic(procPanic(msg)) // unwind the resuming process first
		}
		panic(msg)
	}
}

// WakeFn returns the process's pre-bound wake callback, to pass as the
// continuation of a …C operation before calling Suspend. It is the
// same func value every time, so waiting allocates nothing.
func (p *Proc) WakeFn() func() { return p.wakeFn }

// Suspend parks the process until its wake callback (WakeFn) fires,
// returning at once if it already has. Calling it from anywhere but
// the process's own body — a kernel callback, another process — is a
// bug and panics with the process's name.
func (p *Proc) Suspend() {
	if p.woken {
		p.woken = false
		return
	}
	if p.c.k.running != p {
		panic(fmt.Sprintf("sim: process %q blocked outside its own body (from a kernel callback or another process)", p.Name()))
	}
	p.parked = true
	if !p.yield(struct{}{}) {
		panic(poisonPill{})
	}
	p.c.unblock()
}

// release ends a live process's coroutine during Shutdown: a suspended
// body unwinds through poisonPill, one that never started never runs.
func (p *Proc) release() {
	p.stop()
	if msg := p.panicked; msg != "" {
		panic(fmt.Sprintf("%s (during shutdown)", msg))
	}
}

// Cont returns the handle the continuation-mode primitives take, so a
// process can start any …C operation and wait for it with Suspend.
func (p *Proc) Cont() *Cont { return &p.c }

// Name returns the process name, rendered on demand: names only exist
// for diagnostics (deadlock reports, panic attribution), so mass
// spawns with SpawnIdx never pay for formatting them.
func (p *Proc) Name() string { return p.c.Name() }

// Kernel returns the kernel the process runs under.
func (p *Proc) Kernel() *Kernel { return p.c.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.c.k.now }

// Sleep advances the process's virtual time by d (holding nothing).
// A non-positive d returns immediately without yielding.
func (p *Proc) Sleep(d Duration) {
	p.c.Sleep(d, p.wakeFn)
	p.Suspend()
}

// SleepUntil blocks the process until absolute time t.
func (p *Proc) SleepUntil(t Time) { p.Sleep(t - p.c.k.now) }

// Wait blocks the process until c is completed. If c is already
// complete it returns immediately without yielding.
func (p *Proc) Wait(c *Completion) {
	c.WaitFn(&p.c, p.wakeFn)
	p.Suspend()
}

// WaitAll blocks until every completion in cs is complete.
func (p *Proc) WaitAll(cs ...*Completion) {
	for _, c := range cs {
		p.Wait(c)
	}
}

// Yield reschedules the process at the current time, letting any other
// events already queued for this instant run first.
func (p *Proc) Yield() {
	p.c.block("yielding", "")
	p.c.k.schedule(p.c.k.now, p.wakeFn)
	p.Suspend()
}
