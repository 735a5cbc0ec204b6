package nowsim

import (
	"math"
	"testing"
)

func TestEngineOrdersEvents(t *testing.T) {
	var e Engine
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.Run(math.Inf(1))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %g", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("fired = %d", e.Fired())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	var e Engine
	var order []int
	e.At(5, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 2) })
	e.At(5, func() { order = append(order, 3) })
	e.Run(math.Inf(1))
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("tie-break violated FIFO: %v", order)
		}
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	var e Engine
	count := 0
	var chain Action
	chain = func() {
		count++
		if count < 5 {
			e.After(1, chain)
		}
	}
	e.After(1, chain)
	e.Run(math.Inf(1))
	if count != 5 || e.Now() != 5 {
		t.Errorf("count = %d, clock = %g", count, e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	fired := []float64{}
	for _, tt := range []float64{1, 2, 3, 4} {
		at := tt
		e.At(at, func() { fired = append(fired, at) })
	}
	e.Run(2.5)
	if len(fired) != 2 {
		t.Errorf("fired %v, want events at 1 and 2", fired)
	}
	if len(e.queue) != 2 {
		t.Errorf("pending = %d", len(e.queue))
	}
	e.Run(math.Inf(1))
	if len(fired) != 4 {
		t.Errorf("fired %v after drain", fired)
	}
}

func TestEngineRunUntilInclusive(t *testing.T) {
	var e Engine
	hit := false
	e.At(2, func() { hit = true })
	e.Run(2)
	if !hit {
		t.Error("event at exactly `until` did not fire")
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	var e Engine
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run(math.Inf(1))
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineStepEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}
