package telemetry

import (
	"math"
	"time"

	"odakit/internal/jobsched"
)

// ProfileShape evaluates the normalized power shape of a job profile
// class at elapsed time since job start. The result is in [0, 1] and is a
// pure function of its arguments, so telemetry, the digital twin, and the
// clustering ground truth all agree exactly.
//
// phase in [0,1) offsets periodic shapes so different jobs of the same
// class are not phase-locked.
func ProfileShape(kind jobsched.ProfileKind, elapsed, period time.Duration, phase float64) float64 {
	if elapsed < 0 {
		return 0
	}
	e := elapsed.Seconds()
	p := period.Seconds()
	if p <= 0 {
		p = 120
	}
	ramp := func(over float64) float64 { // 0→1 over `over` seconds
		if e >= over {
			return 1
		}
		return e / over
	}
	switch kind {
	case jobsched.ProfileSteady:
		return 0.15 + 0.85*ramp(60)
	case jobsched.ProfileRamp:
		// Climb over ~40 periods, saturating at 1.
		v := e / (40 * p)
		if v > 1 {
			v = 1
		}
		return 0.1 + 0.9*v
	case jobsched.ProfilePeriodic:
		osc := 0.5 + 0.5*math.Sin(2*math.Pi*(e/p+phase))
		return ramp(30) * (0.35 + 0.6*osc)
	case jobsched.ProfileSpiky:
		// Mostly moderate with tall spikes one-eighth of each period.
		frac := math.Mod(e/p+phase, 1)
		base := 0.3
		if frac < 0.125 {
			base = 1.0
		}
		return ramp(20) * base
	case jobsched.ProfileStepped:
		// Four plateaus stepping up then down.
		steps := []float64{0.3, 0.6, 1.0, 0.5}
		idx := int(math.Mod(e/(4*p)+phase, 1) * 4)
		if idx > 3 {
			idx = 3
		}
		return ramp(30) * steps[idx]
	case jobsched.ProfileDecay:
		return 0.2 + 0.8*math.Exp(-e/(20*p))
	case jobsched.ProfileIdleish:
		return 0.05 + 0.05*math.Sin(2*math.Pi*(e/p+phase))
	case jobsched.ProfileSawtooth:
		frac := math.Mod(e/p+phase, 1)
		return ramp(20) * (0.2 + 0.8*frac)
	default:
		return 0.5
	}
}

// hash64 mixes inputs into a well-distributed 64-bit value
// (splitmix64-style finalizer). It is the root of all per-sample
// randomness, making every reading a pure function of identity and time.
func hash64(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = mix(h, v)
	}
	return h
}

// mix folds one value into a hash64 state: hash64(a, b) is
// mix(hash64(a), b), so a hash over a shared prefix can be resumed.
func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func hashStr(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// unit maps a hash to a uniform float in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// gauss maps two hashes to one standard normal deviate (Box-Muller).
func gauss(h1, h2 uint64) float64 {
	u1 := unit(h1)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := unit(h2)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
