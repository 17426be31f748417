package sim

import "testing"

// BenchmarkEngineSchedule exercises the heap path: events land at
// spread-out future cycles so the same-cycle ring never applies. Must
// report 0 allocs/op in steady state (value heap plus capacity reuse).
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Warm the heap's backing array.
	for i := 0; i < 1024; i++ {
		e.Schedule(Cycle(i%64+1), fn)
	}
	e.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycle(i%64+1), fn)
		if i%1024 == 1023 {
			b.StopTimer()
			e.Run(0)
			b.StartTimer()
		}
	}
	b.StopTimer()
	e.Run(0)
}

// BenchmarkEngineScheduleZeroDelay exercises the same-cycle FIFO ring
// fast path (the kick/Broadcast pattern). Must report 0 allocs/op.
func BenchmarkEngineScheduleZeroDelay(b *testing.B) {
	e := NewEngine()
	var fired int
	fn := func() { fired++ }
	for i := 0; i < 64; i++ {
		e.Schedule(0, fn)
	}
	e.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, fn)
		if i%64 == 63 {
			b.StopTimer()
			e.Run(0)
			b.StartTimer()
		}
	}
	b.StopTimer()
	e.Run(0)
}

// BenchmarkCoroutineYield measures one full engine<->coroutine round
// trip (WaitCycles(1) per iteration) through the production resume
// path: a resume event whose firing switches to the coroutine. Must
// report 0 allocs/op: resume events carry no closure.
func BenchmarkCoroutineYield(b *testing.B) {
	e := NewEngine()
	co := NewCoroutine(e, func(co *Coroutine) {
		for {
			co.WaitCycles(1)
		}
	})
	e.ScheduleResume(0, co)
	e.Step() // park the coroutine on its first wait
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	co.Abort()
}

// BenchmarkWaiterParkBroadcast measures the park/broadcast wakeup used
// by every stall site: one blocked coroutine woken per iteration.
func BenchmarkWaiterParkBroadcast(b *testing.B) {
	e := NewEngine()
	w := NewWaiter(e)
	co := NewCoroutine(e, func(co *Coroutine) {
		for {
			w.Park(co)
		}
	})
	e.ScheduleResume(0, co)
	e.Run(0) // coroutine is now parked on w
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Broadcast()
		e.Run(0)
	}
	b.StopTimer()
	co.Abort()
}
