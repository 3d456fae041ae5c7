package transport

import (
	"fmt"
	"strings"
	"testing"

	"xlupc/internal/sim"
)

// pushAt delivers an AM straight to node dst's queue at time at, as the
// wire does, with the handler and meta given.
func pushAt(k *sim.Kernel, m *Machine, dst int, at sim.Time, id HandlerID, meta any) {
	k.At(at, func() { m.Fab.Port(dst).AM.Push(&Msg{Src: 0, Dst: dst, Handler: id, Meta: meta}) })
}

// Several handler contexts on one AM queue take messages in the order
// dispatcher processes looping on Pop did (the order and event count
// below are what the dispatcher loop produced): waiters are woken FIFO, and
// a context that loses the race for a message — woken by its push, but
// beaten to it by a context that finished at the same instant and
// popped it inline — re-registers at the back of the queue.
func TestHandlerCtxsKeepDispatcherOrder(t *testing.T) {
	k, m := newTestMachine(t, LAPI(), 2) // four contexts per node
	var order strings.Builder
	m.Handle(hPing, func(hc *HandlerCtx, msg *Msg, done func()) {
		name := msg.Meta.(string)
		fmt.Fprintf(&order, "%s:%s ", name, hc.Cont().Name())
		d := sim.Us
		if name == "A" {
			d = 5*sim.Us - k.Now() // finish exactly as B arrives
		}
		hc.Cont().Sleep(d, done)
	})
	// B's push is scheduled before A's handler starts its sleep, so at
	// 5us it runs first: it wakes amdisp1, then A's context finishes,
	// pops B inline, and amdisp1 finds the queue drained. It
	// re-registers at the back, so it gets E; re-registered at the
	// front, it would get C, and amdisp2 and amdisp3 D and E.
	pushAt(k, m, 1, 1*sim.Us, hPing, "A")
	pushAt(k, m, 1, 5*sim.Us, hPing, "B")
	pushAt(k, m, 1, 10*sim.Us, hPing, "C")
	pushAt(k, m, 1, 10*sim.Us, hPing, "D")
	pushAt(k, m, 1, 20*sim.Us, hPing, "E")
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	const want = "A:node1.amdisp0 B:node1.amdisp0 C:node1.amdisp2 D:node1.amdisp3 E:node1.amdisp1 "
	if got := order.String(); got != want {
		t.Fatalf("service order\n got %s\nwant %s", got, want)
	}
	// The dispatcher loop ran this scenario in 28 kernel events.
	if ev := k.Events(); ev != 28 {
		t.Fatalf("%d kernel events, want 28", ev)
	}
}

// A blocking body handed to the coroutine while it is still finishing
// the previous one — the previous body's continuation served the next
// message inline, because RecvOverhead is zero and Comm is free — runs
// once the coroutine gets back to its loop, with no switch of its own.
func TestBlockWhileCoroutineFinishing(t *testing.T) {
	prof := GM()
	prof.RecvOverhead = 0
	k, m := newTestMachine(t, prof, 2)
	var served []string
	m.Handle(hPing, func(hc *HandlerCtx, msg *Msg, done func()) {
		name := msg.Meta.(string)
		hc.Block(func(p *sim.Proc) {
			p.Sleep(sim.Us)
			served = append(served, fmt.Sprintf("%s@%v", name, p.Now()))
		}, done)
	})
	pushAt(k, m, 1, sim.Us, hPing, "first")
	pushAt(k, m, 1, sim.Us, hPing, "second")
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(served, " "), "first@2.000us second@3.000us"; got != want {
		t.Fatalf("served %q, want %q", got, want)
	}
	// Resumed to run the first body and once per sleep; the second body
	// started on the running coroutine.
	if n := m.HandlerResumes(); n != 3 {
		t.Fatalf("%d coroutine resumes, want 3", n)
	}
	// The same handler written as a dispatcher-process body took 7.
	if ev := k.Events(); ev != 7 {
		t.Fatalf("%d kernel events, want 7", ev)
	}
}
