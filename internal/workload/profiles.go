package workload

import (
	"math"

	"nwscpu/internal/simos"
)

// The six UCSD host profiles of the paper. The load levels are chosen so
// that the simulated hosts land in the paper's qualitative regimes:
//
//	thing1, thing2  interactive research workstations; thing2 is the busier
//	conundrum       nearly idle except for a nice-19 background spinner
//	beowulf         moderately loaded departmental server
//	gremlin         lightly loaded departmental server
//	kongo           server occupied by one long-running full-priority job
//
// All profiles share the heavy-tailed job-demand shape alpha = 1.6, which
// targets Hurst ~ 0.7 in the availability series.

const jobShape = 1.6

// Thing1 is a moderately used interactive workstation: its load comes from
// heavy-tailed interactive sessions (editors, short simulations) plus a
// stream of short batch jobs.
func Thing1() Profile {
	return Profile{
		Name: "thing1", Seed: 101,
		JobRate: 1.0 / 300, JobShape: jobShape, JobScale: 10, JobMax: 150,
		JobBurstCPU: 0.25, JobBurstSleep: 0.1,
		SessionRate: 1.0 / 280, SessionMeanBurst: 0.12, SessionMeanThink: 0.85,
		SessionLenShape: 1.4, SessionLenScale: 100, SessionLenMax: 20000,
		DailyCycle: true, DailyAmp: 0.6,
	}
}

// Thing2 is the busier interactive workstation.
func Thing2() Profile {
	return Profile{
		Name: "thing2", Seed: 202,
		JobRate: 1.0 / 200, JobShape: jobShape, JobScale: 12, JobMax: 150,
		JobBurstCPU: 0.25, JobBurstSleep: 0.1,
		SessionRate: 1.0 / 170, SessionMeanBurst: 0.15, SessionMeanThink: 0.6,
		SessionLenShape: 1.4, SessionLenScale: 140, SessionLenMax: 25000,
		DailyCycle: true, DailyAmp: 0.6,
	}
}

// Conundrum is a workstation with a nice-19 background soaker and almost no
// other use. Load average and vmstat see a busy machine; a full-priority
// process sees a nearly idle one.
func Conundrum(duration float64) Profile {
	return Profile{
		Name: "conundrum", Seed: 303,
		JobRate: 1.0 / 700, JobShape: jobShape, JobScale: 6, JobMax: 200,
		DailyCycle: true, DailyAmp: 0.5,
		Fixtures: []Fixture{{
			At: 0,
			Spec: simos.ProcSpec{
				Nice:   19,
				Demand: math.Inf(1), WallLimit: duration + 1,
			},
		}},
	}
}

// Beowulf is a moderately loaded departmental compute server.
func Beowulf() Profile {
	return Profile{
		Name: "beowulf", Seed: 404,
		JobRate: 1.0 / 140, JobShape: jobShape, JobScale: 15, JobMax: 700,
		JobSysFrac: 0.08, JobBurstCPU: 0.3, JobBurstSleep: 0.1,
		DailyCycle: true, DailyAmp: 0.5,
	}
}

// Gremlin is a lightly loaded departmental server.
func Gremlin() Profile {
	return Profile{
		Name: "gremlin", Seed: 505,
		JobRate: 1.0 / 420, JobShape: jobShape, JobScale: 8, JobMax: 600,
		JobSysFrac: 0.05, JobBurstCPU: 0.3, JobBurstSleep: 0.1,
		DailyCycle: true, DailyAmp: 0.5,
	}
}

// Kongo is a server running one long-lived full-priority computation for the
// whole experimental period, plus a trickle of other jobs. Short probes
// evict the long runner (its priority has decayed) and wrongly see an idle
// machine.
func Kongo(duration float64) Profile {
	return Profile{
		Name: "kongo", Seed: 606,
		JobRate: 1.0 / 3600, JobShape: jobShape, JobScale: 4, JobMax: 300,
		DailyCycle: true, DailyAmp: 0.5,
		Fixtures: []Fixture{{
			At: 0,
			Spec: simos.ProcSpec{
				Demand: math.Inf(1), WallLimit: duration + 1,
			},
		}},
	}
}

// Profiles returns all six host profiles for an experiment of the given
// duration, in the paper's table order.
func Profiles(duration float64) []Profile {
	return []Profile{
		Thing2(),
		Thing1(),
		Conundrum(duration),
		Beowulf(),
		Gremlin(),
		Kongo(duration),
	}
}
