package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A wake that fires before the process suspends — the operation
// completed inline — skips the park: no event is spent.
func TestWakeBeforeSuspendCostsNoEvent(t *testing.T) {
	k := NewKernel()
	var spent int64 = -1
	k.Spawn("p", func(p *Proc) {
		c := NewCompletion(k, "ready")
		c.Complete(nil)
		before := k.Events()
		c.WaitFn(p.Cont(), p.WakeFn()) // fires the wake inline
		p.Suspend()
		spent = k.Events() - before
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if spent != 0 {
		t.Fatalf("suspend after an inline wake spent %d events, want 0", spent)
	}
}

// thenResumeLog records the order of steps when a Then callback
// inside A's Complete wakes B: B must run to its next suspend before A
// continues. run executes the scenario with processes (cont=false) or
// continuation-mode threads (cont=true), which must agree step for
// step, in time and event count.
func thenResumeLog(t *testing.T, cont bool) ([]string, Time, int64) {
	t.Helper()
	k := NewKernel()
	c := NewCompletion(k, "c")
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, k.Now())) }
	if cont {
		k.SpawnC("B", func(b *Cont) {
			c.Then(func(any) {
				note("B resumed")
				b.Sleep(5, func() {
					note("B done")
					b.Finish()
				})
			})
		})
		k.SpawnC("A", func(a *Cont) {
			a.Sleep(1, func() {
				note("A completes")
				c.Complete(nil)
				note("A continues")
				a.Finish()
			})
		})
	} else {
		k.Spawn("B", func(p *Proc) {
			wake := p.WakeFn()
			c.Then(func(any) { wake() })
			p.Suspend()
			note("B resumed")
			p.Sleep(5)
			note("B done")
		})
		k.Spawn("A", func(p *Proc) {
			p.Sleep(1)
			note("A completes")
			c.Complete(nil)
			note("A continues")
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return log, k.Now(), k.Events()
}

func TestThenResumesProcessInline(t *testing.T) {
	logP, endP, evP := thenResumeLog(t, false)
	want := []string{"A completes@1ps", "B resumed@1ps", "A continues@1ps", "B done@6ps"}
	if !reflect.DeepEqual(logP, want) {
		t.Fatalf("process order %v, want %v", logP, want)
	}
	logC, endC, evC := thenResumeLog(t, true)
	if !reflect.DeepEqual(logP, logC) || endP != endC || evP != evC {
		t.Fatalf("modes diverged: processes %v (end %v, %d events), continuations %v (end %v, %d events)",
			logP, endP, evP, logC, endC, evC)
	}
}

// A panic in process B while it runs resumed from inside process A
// (a Then in A's Complete woke it) is reported as B's panic.
func TestPanicInResumedProcessIsAttributed(t *testing.T) {
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, `sim: process "B" panicked`) || !strings.Contains(msg, "boom") {
			t.Fatalf("recover = %v, want B's panic", r)
		}
	}()
	k := NewKernel()
	c := NewCompletion(k, "c")
	k.Spawn("B", func(p *Proc) {
		wake := p.WakeFn()
		c.Then(func(any) { wake() })
		p.Suspend()
		panic("boom")
	})
	k.Spawn("A", func(p *Proc) {
		p.Sleep(1)
		c.Complete(nil)
		p.Sleep(1)
	})
	defer k.Shutdown()
	_ = k.Run()
	t.Fatal("Run returned without the panic")
}

// A blocking call made for a process from kernel-callback context
// cannot suspend anything; it panics naming the process instead of
// hanging the run.
func TestBlockingFromCallbackPanics(t *testing.T) {
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, `"sleeper"`) || !strings.Contains(msg, "outside its own body") {
			t.Fatalf("recover = %v, want a panic naming the process", r)
		}
	}()
	k := NewKernel()
	p := k.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
	k.After(5, func() { p.Sleep(1) })
	defer k.Shutdown()
	_ = k.Run()
	t.Fatal("Run returned without the panic")
}
