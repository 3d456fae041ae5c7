package sim

import "strconv"

// This file holds the continuation execution mode: simulated threads
// that run as state machines of kernel callbacks, with no coroutine
// behind them. The blocking primitives (Sleep, Completion.Wait,
// Counter.Wait, Resource.Acquire, Queue.Pop) are implemented once, in
// the continuation-passing form below and in their types' …C methods;
// a Proc's blocking methods start those with its wake callback and
// suspend. Waking a waiter costs exactly one kernel event in either
// mode, so a run produces the same (time, seq) event stream, clock and
// statistics whichever way its threads are executed.

// wake schedules a waiter's callback to run at the current time.
func (k *Kernel) wake(fn func()) {
	k.schedule(k.now, fn)
}

// Cont is a continuation-mode simulated thread: a chain of callbacks
// scheduled directly on the event heap, with no coroutine and no
// stack behind it. Bodies are written in continuation-passing
// style — each blocking primitive takes the rest of the computation
// as a callback — and must call Finish exactly once when the thread's
// program is complete; a live (unfinished) Cont keeps deadlock
// detection armed exactly like a blocked Proc.
type Cont struct {
	k          *Kernel
	namePrefix string
	nameIdx    int // -1: prefix is the full name
	seq        uint64
	state      string // diagnostic: what the continuation waits on ...
	stateArg   string // ... and on which object
	since      Time   // virtual time it last blocked
	finished   bool
}

// Name returns the continuation's name, rendered on demand so spawning
// 128k threads performs no string formatting.
func (c *Cont) Name() string {
	if c.nameIdx < 0 {
		return c.namePrefix
	}
	return c.namePrefix + strconv.Itoa(c.nameIdx)
}

// Kernel returns the kernel the continuation runs under.
func (c *Cont) Kernel() *Kernel { return c.k }

// Now reports the current virtual time.
func (c *Cont) Now() Time { return c.k.now }

// block records what the continuation is about to wait on, for
// deadlock diagnostics: state followed by arg, kept apart so that
// naming the wait allocates nothing.
func (c *Cont) block(state, arg string) {
	c.state, c.stateArg = state, arg
	c.since = c.k.now
}

// unblock marks the continuation runnable again.
func (c *Cont) unblock() { c.state, c.stateArg = "running", "" }

// waitingOn renders the diagnostic state block recorded.
func (c *Cont) waitingOn() string { return c.state + c.stateArg }

// SpawnC creates a continuation-mode thread named name and schedules
// body to start at the current time — one kernel event, exactly like
// Spawn's start event for a goroutine process. The body runs in
// kernel context: it must not block, and continues the thread by
// passing callbacks to the continuation-aware primitives.
func (k *Kernel) SpawnC(name string, body func(c *Cont)) *Cont {
	return k.spawnC(name, -1, body, false)
}

// SpawnCIdx is SpawnC with an index-derived name (prefix + idx,
// rendered only when diagnostics ask for it), so mass spawns allocate
// no name strings.
func (k *Kernel) SpawnCIdx(prefix string, idx int, body func(c *Cont)) *Cont {
	return k.spawnC(prefix, idx, body, false)
}

// SpawnDaemon is SpawnC for a service engine — a callback loop that
// waits on a queue forever, such as a node's AM handler context. A
// daemon is never live: it does not keep deadlock detection armed, so
// Run returns cleanly once only daemons wait, and it needs no Finish.
func (k *Kernel) SpawnDaemon(name string, body func(c *Cont)) *Cont {
	return k.spawnC(name, -1, body, true)
}

func (k *Kernel) spawnC(prefix string, idx int, body func(c *Cont), daemon bool) *Cont {
	k.procSeq++
	c := &Cont{k: k, namePrefix: prefix, nameIdx: idx, seq: k.procSeq, state: "starting"}
	if !daemon {
		if k.conts == nil {
			k.conts = make(map[*Cont]struct{})
		}
		k.conts[c] = struct{}{}
	}
	k.schedule(k.now, func() {
		if c.finished { // Shutdown ran before the start event
			return
		}
		c.state = "running"
		body(c)
	})
	return c
}

// Finish marks the continuation-mode thread complete, releasing it
// from deadlock detection. Must be called exactly once, as the last
// act of the thread's program.
func (c *Cont) Finish() {
	if c.finished {
		panic("sim: continuation " + c.Name() + " finished twice")
	}
	c.finished = true
	delete(c.k.conts, c)
}

// Sleep runs then after d of virtual time: one kernel event for
// positive d, an inline continue otherwise. then is scheduled directly (no unblock wrapper is
// allocated); the state string goes stale — still "sleeping" — while
// then runs, which is fine because diagnostics only ever inspect
// blocked continuations.
func (c *Cont) Sleep(d Duration, then func()) {
	if d <= 0 {
		then()
		return
	}
	c.block("sleeping", "")
	c.k.schedule(c.k.now+d, then)
}

// Loop drives an asynchronous loop without growing the stack: step is
// called once per iteration and either calls next() — possibly
// synchronously, possibly from a later kernel event — to run the next
// iteration, or ends the loop by not calling it (typically invoking
// its own completion callback instead). Synchronous next() calls are
// flattened into an iterative drive loop, so a million non-blocking
// iterations (skipping non-owned indices in an init sweep, say) use
// constant stack.
func Loop(step func(next func())) {
	l := &looper{step: step}
	l.next = l.advance
	l.drive()
}

// looper is Loop's state: one allocation for the flags and one for the
// bound next func.
type looper struct {
	step            func(next func())
	next            func()
	inBody, resumed bool
}

func (l *looper) advance() {
	if l.inBody {
		l.resumed = true
		return
	}
	l.drive()
}

func (l *looper) drive() {
	for {
		l.inBody = true
		l.resumed = false
		l.step(l.next)
		l.inBody = false
		if !l.resumed {
			return
		}
	}
}
