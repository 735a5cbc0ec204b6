package trace

import "testing"

func FuzzProductLimitInvariants(f *testing.F) {
	f.Add([]byte{10, 20, 30})
	f.Add([]byte{5, 5, 5, 200})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 64 {
			return
		}
		obs := make([]Observation, len(raw))
		for i, r := range raw {
			obs[i] = Observation{
				Duration: float64(r%128) + 0.5,
				Censored: r >= 128,
			}
		}
		times, surv, err := ProductLimit(obs)
		if err != nil {
			return // all censored: fine
		}
		prevT := -1.0
		prevS := 1.0
		for i := range times {
			if times[i] <= prevT {
				t.Fatalf("times not strictly increasing: %v", times)
			}
			if surv[i] > prevS+1e-12 || surv[i] < -1e-12 {
				t.Fatalf("survival not nonincreasing in [0,1]: %v", surv)
			}
			prevT, prevS = times[i], surv[i]
		}
	})
}
