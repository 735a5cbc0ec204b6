// Fixture for the unitflow analyzer, named sched so the guarded
// package gate applies.
package sched

import "unitlib"

// Schedule mirrors the simulator's annotated schedule.
type Schedule struct {
	Period float64 //cs:unit time
	Total  float64 //cs:unit work
}

// PositiveSub is the paper's ⊖ operator: the one blessed place where
// a difference of times becomes work.
//
//cs:unit t=time c=time return=work
func PositiveSub(t, c float64) float64 {
	if t <= c {
		return 0
	}
	return t - c //lint:allow unitflow t ⊖ c defines the time→work conversion
}

// sink is a work-typed sink for argument checks.
//
//cs:unit w=work
func sink(w float64) float64 { return w }

// True positive: adding a time to a work sum.
func addMix(s Schedule) float64 {
	return s.Period + s.Total // want "mixing time and work"
}

// True positive: ordering comparison across dimensions.
//
//cs:unit p=probability
func cmpMix(s Schedule, p float64) bool {
	return s.Period < p // want "comparing time and probability"
}

// True positive: a time flows into a work-typed parameter.
func callMix(s Schedule) float64 {
	return sink(s.Period) // want "argument 1 of sink wants work, got time"
}

// True positive: storing a time into work-typed storage.
func storeMix(s *Schedule) {
	s.Total = s.Period // want "storing time into work-typed s.Total"
}

// True positive: returning a time from a work-declared function.
//
//cs:unit return=work
func retMix(s Schedule) float64 {
	return s.Period // want "returning time where the function declares work"
}

// True positive (cross-package): the dependency's annotation arrives
// as session facts.
func crossMix() float64 {
	return sink(unitlib.Elapsed()) // want "argument 1 of sink wants work, got time"
}

// True positive (cross-package field): same, through a struct field.
func crossField(c unitlib.Clock) float64 {
	return sink(c.Start) // want "argument 1 of sink wants work, got time"
}

// True positive: composite-literal field of the wrong dimension.
func litMix(s Schedule) Schedule {
	return Schedule{Period: s.Total} // want "field Period is time, value is work"
}

// Non-finding: like dimensions combine freely, and the flow-inferred
// work variable accumulates into the work field.
//
//cs:unit now=time
func okWork(s Schedule, now float64) float64 {
	w := PositiveSub(now, s.Period)
	return w + s.Total
}

// Non-finding: untyped constants adapt to any dimension.
func okConst(s Schedule) float64 {
	return s.Period + 1.5
}

// Non-finding: scaling work by a probability keeps work.
//
//cs:unit p=probability
func okScale(s Schedule, p float64) float64 {
	return sink(s.Total * p)
}

// Non-finding: unannotated quantities claim nothing.
func okUnknown(a, b float64) float64 {
	return a + b
}

// Non-finding: once arithmetic mixes beyond the algebra (Top), the
// analyzer stays silent instead of cascading.
func okTop(s Schedule, b bool) float64 {
	x := s.Period
	if b {
		x = s.Total
	}
	return x + s.Period
}

// Non-finding (suppressed): intentional packing for display.
func allowMix(s Schedule) float64 {
	//lint:allow unitflow intentional: packing both magnitudes into one scalar for a gauge
	return s.Period + s.Total
}

// Non-finding: a function literal's return answers to the literal, not
// to the annotated function around it; the literal's body is still
// checked.
//
//cs:unit p=probability return=time
func closureReturn(s Schedule, p float64) float64 {
	residual := func(float64) float64 { return p }
	mix := func() float64 { return s.Period + s.Total } // want "mixing time and work"
	return s.Period + residual(0)*0 + mix()*0
}
