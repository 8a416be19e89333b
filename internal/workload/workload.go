// Package workload generates the synthetic load placed on the simulated
// hosts. It substitutes for the August-1998 UCSD departmental users of the
// paper.
//
// Two generative ingredients give the load the statistical character the
// paper measures:
//
//   - Batch jobs arrive in a Poisson stream whose rate follows a daily
//     cycle, with CPU demands drawn from a bounded Pareto distribution.
//     Heavy-tailed service demands are the standard generative model for
//     long-range dependence: an M/G/infinity-style load series with Pareto
//     shape alpha has Hurst parameter H = (3 - alpha)/2, so alpha = 1.6
//     targets the H ~ 0.7 the paper estimates.
//   - Interactive sessions are processes alternating short compute bursts
//     with think-time sleeps, modelling the workstation console users.
//
// Each of the paper's six hosts is described by a Profile; fixtures encode
// the two anomalous hosts (conundrum's nice-19 background spinner, kongo's
// long-running full-priority job).
package workload

import (
	"math"
	"math/rand"

	"nwscpu/internal/simos"
)

// BoundedPareto draws a Pareto(alpha, xm) variate truncated (by inverse-CDF
// restriction, not rejection) to [xm, max]. It panics on invalid parameters.
func BoundedPareto(rng *rand.Rand, alpha, xm, max float64) float64 {
	if alpha <= 0 || xm <= 0 || max <= xm {
		panic("workload: BoundedPareto parameters invalid")
	}
	// Inverse CDF of the bounded Pareto distribution.
	u := rng.Float64()
	la := math.Pow(xm, alpha)
	ha := math.Pow(max, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Exp draws an exponential variate with the given mean.
// It panics if mean is not positive.
func Exp(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		panic("workload: Exp mean must be positive")
	}
	return rng.ExpFloat64() * mean
}

// Arrival is one scheduled process arrival.
type Arrival struct {
	T    float64
	Spec simos.ProcSpec
}

// Fixture is a statically scheduled process (e.g. a background spinner that
// is present for the entire experiment).
type Fixture struct {
	At   float64
	Spec simos.ProcSpec
}

// Profile describes the load placed on one host.
type Profile struct {
	// Name is the host name (thing1, thing2, ...).
	Name string
	// Seed makes the generated arrival stream reproducible.
	Seed int64

	// JobRate is the mean Poisson arrival rate (jobs per second) of batch
	// jobs, before daily-cycle modulation. Zero disables batch jobs.
	JobRate float64
	// JobShape is the Pareto tail exponent alpha of batch CPU demands.
	JobShape float64
	// JobScale is the Pareto scale xm (minimum CPU demand, seconds).
	JobScale float64
	// JobMax bounds batch CPU demands (seconds).
	JobMax float64
	// JobSysFrac is the system-time fraction of batch jobs.
	JobSysFrac float64
	// JobNice is the nice value of batch jobs.
	JobNice int
	// JobBurstCPU and JobBurstSleep, when JobBurstCPU > 0, make batch jobs
	// alternate computation with short I/O-like sleeps instead of spinning.
	// Real compilations and simulations block on I/O regularly, which keeps
	// their scheduler CPU-usage estimate moderate; a host populated only
	// with pure spinners over-triggers the probe-eviction (kongo) effect.
	JobBurstCPU   float64
	JobBurstSleep float64

	// SessionRate is the Poisson arrival rate of interactive sessions.
	// Zero disables sessions.
	SessionRate float64
	// SessionMeanBurst is the mean compute-burst length (CPU seconds).
	SessionMeanBurst float64
	// SessionMeanThink is the mean think time between bursts (seconds).
	SessionMeanThink float64
	// SessionMeanLen is the mean session length (wall seconds) when session
	// lengths are exponential (SessionLenShape == 0).
	SessionMeanLen float64
	// SessionLenShape, when positive, draws session lengths from a bounded
	// Pareto distribution instead: shape alpha = SessionLenShape, scale =
	// SessionLenScale, bound = SessionLenMax. Heavy-tailed ON periods are
	// the second standard source of long-range dependence (Willinger et
	// al.), and they model the paper's interactive workstations — where the
	// load comes from people, not batch queues — without populating the
	// hosts with long-running CPU-bound spinners.
	SessionLenShape float64
	SessionLenScale float64
	SessionLenMax   float64

	// DailyCycle, when true, modulates arrival rates sinusoidally over a
	// 24-hour period (peak at 16:00 virtual time, amplitude DailyAmp).
	DailyCycle bool
	// DailyAmp is the relative amplitude of the daily cycle in [0, 1).
	DailyAmp float64

	// FlashStart, FlashLen and FlashMult describe a flash crowd: inside the
	// window [FlashStart, FlashStart+FlashLen) every arrival rate is
	// multiplied by FlashMult. FlashLen == 0 (the default) disables it.
	FlashStart float64
	FlashLen   float64
	FlashMult  float64

	// StormPeriod, StormDuty and StormMult describe an ON/OFF batch storm: a
	// square wave of period StormPeriod seconds that multiplies arrival
	// rates by StormMult for the first StormDuty fraction of each period
	// (a batch queue draining on a cron cadence). StormPeriod == 0 or
	// StormMult == 0 (the default) disables it.
	StormPeriod float64
	StormDuty   float64
	StormMult   float64

	// ChaosAmp, when positive, modulates arrival rates by a deterministic
	// chaotic signal: a logistic map x <- 4x(1-x) iterated every ChaosStep
	// seconds (default 60) from a seed-derived x0, scaled into
	// [1-ChaosAmp, 1+ChaosAmp]. Low-dimensional chaotic load is the regime
	// where Garland & Bradley show linear predictors break down; the grid
	// harness uses it to stress the forecaster bank with structure that is
	// deterministic yet non-periodic.
	ChaosAmp  float64
	ChaosStep float64

	// Fixtures are statically scheduled processes.
	Fixtures []Fixture
}

const day = 86400.0

// rateAt returns the daily-cycle arrival rate multiplier at time t.
func (p Profile) rateAt(t float64) float64 {
	if !p.DailyCycle {
		return 1
	}
	// Peak at 16:00; trough at 04:00.
	phase := 2 * math.Pi * (t/day - 16.0/24.0)
	return 1 + p.DailyAmp*math.Cos(phase)
}

// peakMult bounds the combined rate multiplier over all of time; the
// thinning envelope in Generate must dominate every instantaneous rate.
func (p Profile) peakMult() float64 {
	m := 1 + p.DailyAmp
	if p.FlashLen > 0 && p.FlashMult > 1 {
		m *= p.FlashMult
	}
	if p.StormPeriod > 0 && p.StormMult > 1 {
		m *= p.StormMult
	}
	if p.ChaosAmp > 0 {
		m *= 1 + p.ChaosAmp
	}
	return m
}

// rateFn returns the full time-varying rate multiplier as a closure. The
// chaotic term iterates its logistic map incrementally, so each generation
// pass must take a fresh closure and call it with non-decreasing times —
// which the Poisson passes in Generate do by construction.
func (p Profile) rateFn() func(t float64) float64 {
	chaos := func(float64) float64 { return 1 }
	if p.ChaosAmp > 0 {
		step := p.ChaosStep
		if step <= 0 {
			step = 60
		}
		// Seed-derived x0 strictly inside (0, 1); re-injected if an
		// iterate ever collapses onto the map's absorbing edge.
		x := 0.137 + 0.7*float64(uint64(p.Seed*2654435761)%997)/997.0
		n := 0
		amp := p.ChaosAmp
		chaos = func(t float64) float64 {
			for k := int(t / step); n < k; n++ {
				x = 4 * x * (1 - x)
				if x <= 0 || x >= 1 {
					x = 0.339
				}
			}
			return 1 + amp*(2*x-1)
		}
	}
	return func(t float64) float64 {
		m := p.rateAt(t)
		if p.FlashLen > 0 && t >= p.FlashStart && t < p.FlashStart+p.FlashLen {
			m *= p.FlashMult
		}
		if p.StormPeriod > 0 && p.StormMult > 0 {
			if math.Mod(t, p.StormPeriod) < p.StormDuty*p.StormPeriod {
				m *= p.StormMult
			}
		}
		return m * chaos(t)
	}
}

// Generate produces the arrival stream for an experiment of the given
// duration (seconds), sorted by arrival time, fixtures included.
// It panics if duration is not positive.
func (p Profile) Generate(duration float64) []Arrival {
	if duration <= 0 {
		panic("workload: Generate duration must be positive")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var out []Arrival

	for _, f := range p.Fixtures {
		if f.At < duration {
			out = append(out, Arrival{T: f.At, Spec: f.Spec})
		}
	}

	// Batch jobs: thinned Poisson process at peak rate.
	if p.JobRate > 0 {
		rate := p.rateFn()
		peak := p.JobRate * p.peakMult()
		t := 0.0
		for {
			t += Exp(rng, 1/peak)
			if t >= duration {
				break
			}
			if rng.Float64()*peak > p.JobRate*rate(t) {
				continue // thinned out
			}
			demand := BoundedPareto(rng, p.JobShape, p.JobScale, p.JobMax)
			out = append(out, Arrival{T: t, Spec: simos.ProcSpec{
				Nice:       p.JobNice,
				Demand:     demand,
				SysFrac:    p.JobSysFrac,
				BurstCPU:   p.JobBurstCPU,
				BurstSleep: p.JobBurstSleep,
			}})
		}
	}

	// Interactive sessions.
	if p.SessionRate > 0 {
		rate := p.rateFn()
		peak := p.SessionRate * p.peakMult()
		t := 0.0
		for {
			t += Exp(rng, 1/peak)
			if t >= duration {
				break
			}
			if rng.Float64()*peak > p.SessionRate*rate(t) {
				continue
			}
			var length float64
			if p.SessionLenShape > 0 {
				length = BoundedPareto(rng, p.SessionLenShape, p.SessionLenScale, p.SessionLenMax)
			} else {
				length = Exp(rng, p.SessionMeanLen)
			}
			out = append(out, Arrival{T: t, Spec: simos.ProcSpec{
				Demand:     math.Inf(1),
				WallLimit:  length + 1,
				BurstCPU:   Exp(rng, p.SessionMeanBurst) + 0.01,
				BurstSleep: Exp(rng, p.SessionMeanThink) + 0.1,
			}})
		}
	}

	sortArrivals(out)
	return out
}

func sortArrivals(as []Arrival) {
	// Insertion sort on nearly sorted data; streams are generated in time
	// order per class, so only the class merge is out of order.
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].T < as[j-1].T; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}

// Submit loads the whole arrival stream onto a host.
func Submit(h *simos.Host, as []Arrival) {
	ts := make([]float64, len(as))
	specs := make([]simos.ProcSpec, len(as))
	for i, a := range as {
		ts[i] = a.T
		specs[i] = a.Spec
	}
	h.SubmitAll(ts, specs)
}
