package cyclesteal_test

import (
	"fmt"
	"log"

	cyclesteal "repro"
)

// Plan a cycle-stealing episode under uniform reclaim risk and inspect
// the guideline schedule.
func ExamplePlan() {
	life, err := cyclesteal.UniformRisk(100) // owner back within 100s
	if err != nil {
		log.Fatal(err)
	}
	plan, err := cyclesteal.Plan(life, 1) // 1s setup per chunk
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t0=%.2f periods=%d E=%.2f\n",
		plan.T0, plan.Schedule.Len(), plan.ExpectedWork)
	// The uniform-risk recurrence (paper eq. 4.1): t_k = t_{k-1} - c.
	fmt.Printf("t1=%.2f t2=%.2f\n", plan.Schedule.Period(1), plan.Schedule.Period(2))
	// Output:
	// t0=13.64 periods=13 E=41.07
	// t1=12.64 t2=11.64
}

// Expected work of a hand-rolled schedule, equation (2.1).
func ExampleExpectedWork() {
	life, _ := cyclesteal.UniformRisk(10)
	s := mustSchedule(4, 3)
	// E = (4-1)·p(4) + (3-1)·p(7) = 3·0.6 + 2·0.3 = 2.4
	fmt.Printf("%.2f\n", cyclesteal.ExpectedWork(s, life, 1))
	// Output: 2.40
}

// Build a schedule from period lengths and read it back.
func ExampleNewSchedule() {
	s, err := cyclesteal.NewSchedule(4, 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("periods=%d total=%g t1=%g\n", s.Len(), s.Total(), s.Period(1))
	// Output: periods=3 total=9 t1=3
}

// The memoryless scenario: equal periods are optimal, and the planner
// finds them.
func ExampleHalfLife() {
	life, _ := cyclesteal.HalfLife(32) // absence survival halves every 32s
	plan, _ := cyclesteal.Plan(life, 1)
	fmt.Printf("t0=%.3f t1=%.3f equal=%v\n",
		plan.Schedule.Period(0), plan.Schedule.Period(1),
		plan.Schedule.Period(1)-plan.Schedule.Period(0) < 1e-6)
	// Output: t0=9.954 t1=9.954 equal=true
}

// Checking whether a life function admits an optimal schedule at all
// (the paper's Corollary 3.2 example).
func ExampleAdmitsOptimal() {
	heavyTail, _ := cyclesteal.PolynomialRisk(1, 100) // fine: bounded horizon
	ok, _, _ := cyclesteal.AdmitsOptimal(heavyTail, 1)
	fmt.Println("uniform risk admits an optimum:", ok)
	// Output: uniform risk admits an optimum: true
}

func mustSchedule(periods ...float64) cyclesteal.Schedule {
	s, err := cyclesteal.NewSchedule(periods...)
	if err != nil {
		log.Fatal(err)
	}
	return s
}
