package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// A panic raised inside a coroutine body must come back out of Run on
// the caller's goroutine with the very same value.
func TestCoroutinePanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	co := NewCoroutine(e, func(co *Coroutine) {
		co.WaitCycles(3)
		panic(boom)
	})
	e.ScheduleResume(0, co)
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("Run panicked with %v, want %v", r, boom)
		}
		if !co.Done() {
			t.Error("panicked coroutine not done")
		}
		if e.Now() != 3 {
			t.Errorf("clock = %d at panic, want 3", e.Now())
		}
	}()
	e.Run(0)
	t.Fatal("Run returned without panicking")
}

// waitGoroutines polls until at most want goroutines remain: a finished
// or aborted coroutine's goroutine exits shortly after the switch back.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 2000 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines remain, want at most %d", got, want)
	}
}

// Every coroutine's goroutine must exit once the coroutine is done:
// when its body returns, when it is aborted while parked, and when it
// is aborted before it ever ran.
func TestCoroutineGoroutinesExit(t *testing.T) {
	const n = 4
	spawn := func(e *Engine, body func(co *Coroutine)) []*Coroutine {
		cos := make([]*Coroutine, n)
		for i := range cos {
			cos[i] = NewCoroutine(e, body)
		}
		return cos
	}
	abortAll := func(cos []*Coroutine) {
		for _, co := range cos {
			co.Abort()
		}
	}

	t.Run("finished", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		cos := spawn(e, func(co *Coroutine) { co.WaitCycles(2) })
		if got := runtime.NumGoroutine(); got < base+n {
			t.Fatalf("%d goroutines after spawning %d coroutines from %d", got, n, base)
		}
		for i, co := range cos {
			e.ScheduleResume(Cycle(i), co)
		}
		e.Run(0)
		for _, co := range cos {
			if !co.Done() {
				t.Fatal("coroutine not done after Run")
			}
		}
		waitGoroutines(t, base)
	})

	t.Run("aborted-parked", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		w := NewWaiter(e)
		cos := spawn(e, func(co *Coroutine) {
			for {
				w.Park(co)
			}
		})
		for i, co := range cos {
			e.ScheduleResume(Cycle(i), co)
		}
		e.Run(0)
		if w.ParkedCount() != n {
			t.Fatalf("%d coroutines parked, want %d", w.ParkedCount(), n)
		}
		abortAll(cos)
		waitGoroutines(t, base)
	})

	t.Run("aborted-never-resumed", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		ran := 0
		cos := spawn(e, func(co *Coroutine) { ran++ })
		abortAll(cos)
		for _, co := range cos {
			if !co.Done() {
				t.Fatal("aborted coroutine not done")
			}
		}
		if ran != 0 {
			t.Errorf("%d never-resumed bodies ran on Abort", ran)
		}
		if got := e.Stats().CoroutineSwitches; got != n {
			t.Errorf("CoroutineSwitches = %d, want %d (one per Abort of a live coroutine)", got, n)
		}
		waitGoroutines(t, base)
	})
}
