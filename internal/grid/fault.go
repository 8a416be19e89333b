package grid

import (
	"context"
	"fmt"
	"sort"

	"nwscpu/internal/nwsnet"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

// The fault campaign drives the production replication stack — ReplicaGroup
// (quorum writes), Repairer (anti-entropy), Memory — over an in-process
// LocalTransport while a seeded schedule injects faults:
//
//	crash      a replica goes down for several times the writer's backlog
//	           window, then restarts over its durable store — the outage
//	           only the repair plane can heal
//	stall      a replica outage of a round or two
//	partition  an asymmetric split: writes to the replica apply but the
//	           responses are lost (the chaos proxy's partition fault,
//	           in-process), exercising applied-but-unacked redelivery
//	skew       a sensor host's clock jumps forward and stays skewed — its
//	           measurements run ahead of the fleet but must never be lost
//
// Every run executes the same schedule twice — once with anti-entropy
// repairers beside each replica, once without — and scores both arms against
// the campaign invariants (zero measurement loss, replicas bit-identical
// within a bounded number of rounds of the last fault clearing, zero read
// unavailability, and, for the repair-off arm, that the divergence the
// repair plane exists for shows up as exactly the writes the downed replicas
// missed). Everything is a pure function of the configuration: same seed,
// same report, byte for byte.

// FaultKind names one injectable fault in a campaign schedule.
type FaultKind string

// The campaign's fault kinds.
const (
	FaultCrash     FaultKind = "crash"
	FaultStall     FaultKind = "stall"
	FaultPartition FaultKind = "partition"
	FaultSkew      FaultKind = "skew"
)

// FaultEvent is one scheduled fault: Kind hits Target starting at Round and
// clears Rounds rounds later (skew never clears; its Rounds is 0).
type FaultEvent struct {
	Round  int       `json:"round"`
	Kind   FaultKind `json:"kind"`
	Target string    `json:"target"`
	Rounds int       `json:"rounds"`
}

// FaultConfig parameterizes one fault campaign. The zero value is not
// runnable; start from DefaultFaultConfig.
type FaultConfig struct {
	Seed    int64
	Hosts   int
	Rounds  int
	Cadence float64
	Tick    float64

	Replicas int // memory replica count
	Quorum   int // write quorum (0 = majority)

	// BacklogCap bounds each sensor daemon's store-and-forward backlog —
	// the campaign keeps it small so a crash outage of CrashRounds
	// demonstrably outlasts everything the writer can replay.
	BacklogCap int
	// CrashRounds is the long-outage length in rounds; DefaultFaultConfig
	// sets it to 3x BacklogCap per the campaign's acceptance invariant.
	CrashRounds int
	// RecoveryRounds is the convergence budget: after the last fault
	// clears, the repair arm's replicas must be bit-identical within this
	// many rounds.
	RecoveryRounds int
}

// DefaultFaultConfig is the shipped campaign: six hosts, three replicas,
// one long crash plus a seeded tail of stalls, partitions, and clock skews.
func DefaultFaultConfig() FaultConfig {
	return FaultConfig{
		Seed:           1,
		Hosts:          6,
		Rounds:         48,
		Cadence:        10,
		Tick:           0.01,
		Replicas:       3,
		Quorum:         2,
		BacklogCap:     6,
		CrashRounds:    18, // 3x the backlog window
		RecoveryRounds: 3,
	}
}

func (cfg FaultConfig) normalize() FaultConfig {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 6
	}
	if cfg.Cadence < 2 {
		cfg.Cadence = 2
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 0.01
	}
	if cfg.Replicas < 3 {
		cfg.Replicas = 3
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = cfg.Replicas/2 + 1
	}
	if cfg.BacklogCap <= 0 {
		cfg.BacklogCap = 6
	}
	if cfg.CrashRounds <= 0 {
		cfg.CrashRounds = 3 * cfg.BacklogCap
	}
	if cfg.RecoveryRounds <= 0 {
		cfg.RecoveryRounds = 3
	}
	if min := 2 + cfg.CrashRounds + 10 + cfg.RecoveryRounds; cfg.Rounds < min {
		cfg.Rounds = min
	}
	return cfg
}

// faultSchedule derives the campaign's event list from the seed: the
// guaranteed long crash first, then seeded stalls, partitions, and skews.
// Replica faults never overlap (at most one replica is faulted at a time,
// so the write quorum always holds and divergence comes from the faulted
// replica alone, not from writer backlog growth), and the last
// RecoveryRounds rounds are left quiet for convergence scoring.
func faultSchedule(cfg FaultConfig, replicaAddrs, hostNames []string) []FaultEvent {
	x := uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	next := func(n uint64) uint64 {
		x = splitmix64(x)
		return x % n
	}
	nr := uint64(len(replicaAddrs))

	var events []FaultEvent
	r := 2 // let every series exist before the first fault
	// One of each kind is guaranteed — the long crash the acceptance
	// invariant names, a short stall, a partition, a skew —
	// then the seeded tail mixes freely.
	events = append(events, FaultEvent{
		Round:  r,
		Kind:   FaultCrash,
		Target: replicaAddrs[next(nr)],
		Rounds: cfg.CrashRounds,
	})
	r += cfg.CrashRounds + 1
	events = append(events, FaultEvent{Round: r, Kind: FaultStall,
		Target: replicaAddrs[next(nr)], Rounds: 2})
	r += 3
	events = append(events, FaultEvent{Round: r, Kind: FaultPartition,
		Target: replicaAddrs[next(nr)], Rounds: 2})
	r += 3
	events = append(events, FaultEvent{Round: r, Kind: FaultSkew,
		Target: hostNames[next(uint64(len(hostNames)))]})
	r++

	last := cfg.Rounds - cfg.RecoveryRounds
	for r < last {
		switch next(4) {
		case 0:
			d := 2 + int(next(2))
			if r+d > last {
				return events
			}
			events = append(events, FaultEvent{Round: r, Kind: FaultPartition,
				Target: replicaAddrs[next(nr)], Rounds: d})
			r += d + 1
		case 1:
			d := 1 + int(next(2))
			if r+d > last {
				return events
			}
			events = append(events, FaultEvent{Round: r, Kind: FaultStall,
				Target: replicaAddrs[next(nr)], Rounds: d})
			r += d + 1
		case 2:
			events = append(events, FaultEvent{Round: r, Kind: FaultSkew,
				Target: hostNames[next(uint64(len(hostNames)))]})
			r++
		default:
			r++ // quiet round
		}
	}
	return events
}

// faultArm runs one arm of the campaign (repair on or off) and scores it.
func faultArm(cfg FaultConfig, events []FaultEvent, repair bool) (ArmResult, error) {
	cat := catalog()
	addrs := make([]string, cfg.Replicas)
	lt := nwsnet.NewLocalTransport()
	mems := make([]*nwsnet.Memory, cfg.Replicas)
	for i := range mems {
		mems[i] = nwsnet.NewMemory(0)
		addrs[i] = fmt.Sprintf("mem-%d", i)
		lt.Register(addrs[i], mems[i])
	}
	group := nwsnet.NewReplicaGroupTransport(lt, addrs, cfg.Quorum)
	down := make(map[string]bool)
	ledger := &ledgerBackend{inner: group, down: down, seen: make(map[string]map[float64]bool)}

	var repairers []*nwsnet.Repairer
	if repair {
		for i, m := range mems {
			peers := make([]string, 0, len(addrs)-1)
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			repairers = append(repairers, nwsnet.NewRepairer(lt, m, peers))
		}
	}

	// The fleet: the same deterministic per-host derivation as Run, at
	// campaign scale, each daemon delivering through the shared quorum
	// group (behind the loss ledger).
	hosts := make([]*simos.Host, cfg.Hosts)
	daemons := make([]*nwsnet.SensorDaemon, cfg.Hosts)
	series := make([]string, cfg.Hosts)
	names := make([]string, cfg.Hosts)
	skew := make([]float64, cfg.Hosts)
	duration := float64(cfg.Rounds) * cfg.Cadence
	for i := 0; i < cfg.Hosts; i++ {
		si := i % len(cat)
		names[i] = fmt.Sprintf("%s-%04d", cat[si].name, i/len(cat))
		u := [4]float64{
			hostFrac(cfg.Seed, i, 0), hostFrac(cfg.Seed, i, 1),
			hostFrac(cfg.Seed, i, 2), hostFrac(cfg.Seed, i, 3),
		}
		profile, steal := cat[si].build(duration, cfg.Cadence, u)
		profile.Name = names[i]
		profile.Seed = int64(hostBits(cfg.Seed, i, 4))
		simCfg := simos.DefaultConfig()
		simCfg.Tick = cfg.Tick
		h := simos.New(simCfg)
		if steal != nil {
			h.SetSteal(steal)
		}
		// Generate past the horizon plus the largest possible skew so a
		// skewed host never runs out of arrivals.
		workload.Submit(h, profile.Generate(2*duration))
		hosts[i] = h
		daemons[i] = nwsnet.NewSensorDaemonBackend(names[i], sensors.SimHost{H: h}, ledger, sensors.DefaultHybridConfig())
		daemons[i].SetBacklogCap(cfg.BacklogCap)
		series[i] = nwsnet.SeriesKey(names[i], "nws_hybrid")
	}

	// Index the schedule by start round; track the round after which every
	// replica fault has cleared.
	starts := make(map[int][]FaultEvent)
	lastClear := 0
	for _, ev := range events {
		starts[ev.Round] = append(starts[ev.Round], ev)
		if ev.Kind != FaultSkew && ev.Round+ev.Rounds > lastClear {
			lastClear = ev.Round + ev.Rounds
		}
	}
	hostIdx := make(map[string]int, len(names))
	for i, n := range names {
		hostIdx[n] = i
	}
	clearAt := make(map[int][]FaultEvent)

	res := ArmResult{Repair: repair, ConvergedRound: -1, RoundsToConverge: -1}
	if repair {
		res.Name = "repair-on"
	} else {
		res.Name = "repair-off"
	}

	ctx := context.Background()
	skewIdx := 0
	for r := 1; r <= cfg.Rounds; r++ {
		for _, ev := range clearAt[r] {
			switch ev.Kind {
			case FaultCrash, FaultStall:
				lt.SetDown(ev.Target, false)
				down[ev.Target] = false
			case FaultPartition:
				lt.SetPartitioned(ev.Target, false)
			}
		}
		for _, ev := range starts[r] {
			switch ev.Kind {
			case FaultCrash, FaultStall:
				lt.SetDown(ev.Target, true)
				down[ev.Target] = true
				clearAt[ev.Round+ev.Rounds] = append(clearAt[ev.Round+ev.Rounds], ev)
			case FaultPartition:
				lt.SetPartitioned(ev.Target, true)
				clearAt[ev.Round+ev.Rounds] = append(clearAt[ev.Round+ev.Rounds], ev)
			case FaultSkew:
				// A deterministic forward jump between half and one and a
				// half cadences; the host's clock stays monotonic, just
				// ahead of the fleet from here on.
				skewIdx++
				skew[hostIdx[ev.Target]] += cfg.Cadence * (0.5 + hostFrac(cfg.Seed, skewIdx, 7))
			}
		}

		target := float64(r) * cfg.Cadence
		for i := range hosts {
			hosts[i].RunUntil(target + skew[i])
			if err := daemons[i].Step(); err != nil {
				// At most one replica is faulted at a time, so quorum always
				// holds; a step failure is a campaign invariant violation,
				// counted and scored, not fatal.
				res.QuorumFailures++
			}
		}

		if repair {
			for i, rp := range repairers {
				if down[addrs[i]] {
					continue // a crashed process runs no repair loop
				}
				n, _ := rp.RepairRound(ctx)
				res.RepairPointsRecovered += uint64(n)
				res.RepairRounds++
			}
		}

		// Read-plane probes: one quorum-group fetch per host series; the
		// group's failover must absorb any single faulted replica.
		for i := range hosts {
			res.Probes++
			if _, err := group.Fetch(ctx, series[i], 0, 0, 1); err != nil {
				res.ProbeFailures++
			}
		}

		if r > lastClear && res.ConvergedRound < 0 && memsIdentical(mems) {
			res.ConvergedRound = r
			res.RoundsToConverge = r - lastClear
		}
	}

	// Final scoring against the ledger of quorum-acknowledged measurements.
	res.LedgerPoints = ledger.total()
	res.MissedWrites = ledger.missed
	keys := ledger.seriesKeys()
	divergent := make(map[string]bool)
	for _, m := range mems {
		for _, key := range keys {
			missing := ledger.missingFrom(m, key)
			res.MissingPoints += uint64(missing)
			if missing > 0 {
				divergent[key] = true
			}
		}
	}
	res.DivergentSeries = len(divergent)
	return res, nil
}

// memsIdentical reports whether every memory holds bit-identical content
// (pairwise-equal full digest sets; see nwsnet.SeriesDigest).
func memsIdentical(mems []*nwsnet.Memory) bool {
	base := mems[0].Digests("")
	for _, m := range mems[1:] {
		d := m.Digests("")
		if len(d) != len(base) {
			return false
		}
		for i := range d {
			if d[i] != base[i] {
				return false
			}
		}
	}
	return true
}

// ledgerBackend wraps the campaign's StoreBackend and records every
// quorum-acknowledged measurement — the ground truth the zero-loss invariant
// is judged against. (A sub-store that misses quorum stays in the daemon's
// backlog and is not yet owed to the ledger.) It also counts the writes the
// repair plane owes: each acknowledged point once per replica that was down
// when it was acknowledged — counted from the schedule, not from the code
// under test. A partitioned replica applies the write, so it owes nothing.
type ledgerBackend struct {
	inner  nwsnet.StoreBackend
	down   map[string]bool // the campaign's crashed and stalled replicas
	seen   map[string]map[float64]bool
	missed uint64
}

func (l *ledgerBackend) StoreBatch(ctx context.Context, stores []nwsnet.BatchStore) ([]error, error) {
	errs, err := l.inner.StoreBatch(ctx, stores)
	for i, st := range stores {
		serr := err
		if errs != nil {
			serr = errs[i]
		}
		if serr != nil {
			continue
		}
		bySeries := l.seen[st.Series]
		if bySeries == nil {
			bySeries = make(map[float64]bool)
			l.seen[st.Series] = bySeries
		}
		for _, p := range st.Points {
			if !bySeries[p[0]] {
				bySeries[p[0]] = true
				l.missed += l.downCount()
			}
		}
	}
	return errs, err
}

func (l *ledgerBackend) Health() []nwsnet.ReplicaHealth { return l.inner.Health() }

// downCount reports how many replicas are down right now.
func (l *ledgerBackend) downCount() uint64 {
	n := uint64(0)
	for _, d := range l.down {
		if d {
			n++
		}
	}
	return n
}

func (l *ledgerBackend) total() uint64 {
	n := uint64(0)
	for _, bySeries := range l.seen {
		n += uint64(len(bySeries))
	}
	return n
}

func (l *ledgerBackend) seriesKeys() []string {
	keys := make([]string, 0, len(l.seen))
	for k := range l.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// missingFrom counts ledger timestamps of one series absent from a memory.
func (l *ledgerBackend) missingFrom(m *nwsnet.Memory, key string) int {
	resp := m.Handle(nwsnet.Request{Op: nwsnet.OpFetch, Series: key})
	have := make(map[float64]bool, len(resp.Points))
	if resp.Error == "" {
		for _, p := range resp.Points {
			have[p[0]] = true
		}
	}
	missing := 0
	for ts := range l.seen[key] {
		if !have[ts] {
			missing++
		}
	}
	return missing
}

// RunFaultCampaign executes the seeded fault schedule twice — with and
// without anti-entropy repair — and returns the robustness report. The
// report is a pure function of cfg: running twice with equal configs yields
// identical bytes (see TestFaultCampaignByteIdentical).
func RunFaultCampaign(cfg FaultConfig) (*FaultReport, error) {
	cfg = cfg.normalize()
	addrs := make([]string, cfg.Replicas)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mem-%d", i)
	}
	cat := catalog()
	names := make([]string, cfg.Hosts)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%04d", cat[i%len(cat)].name, i/len(cat))
	}
	events := faultSchedule(cfg, addrs, names)

	report := &FaultReport{
		Schema: FaultSchemaVersion,
		Seed:   cfg.Seed,
		Config: FaultReportConfig{
			Hosts: cfg.Hosts, Rounds: cfg.Rounds, CadenceS: cfg.Cadence, TickS: cfg.Tick,
			Replicas: cfg.Replicas, Quorum: cfg.Quorum, BacklogCap: cfg.BacklogCap,
			CrashRounds: cfg.CrashRounds, RecoveryRounds: cfg.RecoveryRounds,
		},
		Events: events,
	}
	for _, repair := range []bool{true, false} {
		arm, err := faultArm(cfg, events, repair)
		if err != nil {
			return nil, err
		}
		report.Arms = append(report.Arms, arm)
	}

	on, off := report.Arms[0], report.Arms[1]
	report.Verdicts = append(report.Verdicts,
		Verdict{
			Config: "repair-on/zero-loss",
			SLO:    "missing_points==0",
			Value:  float64(on.MissingPoints),
			Target: 0,
			Pass:   on.MissingPoints == 0,
		},
		Verdict{
			Config: "repair-on/convergence",
			SLO:    fmt.Sprintf("rounds_to_converge<=%d", cfg.RecoveryRounds),
			Value:  float64(on.RoundsToConverge),
			Target: float64(cfg.RecoveryRounds),
			Pass:   on.RoundsToConverge >= 0 && on.RoundsToConverge <= cfg.RecoveryRounds,
		},
		Verdict{
			Config: "repair-on/availability",
			SLO:    "probe_failures==0",
			Value:  float64(on.ProbeFailures),
			Target: 0,
			Pass:   on.ProbeFailures == 0,
		},
		Verdict{
			Config: "repair-on/quorum",
			SLO:    "quorum_failures==0",
			Value:  float64(on.QuorumFailures),
			Target: 0,
			Pass:   on.QuorumFailures == 0,
		},
		Verdict{
			Config: "repair-off/divergence-reproduced",
			SLO:    "missing_points==missed_writes>0",
			Value:  float64(off.MissingPoints),
			Target: float64(off.MissedWrites),
			Pass:   off.MissingPoints == off.MissedWrites && off.MissedWrites > 0,
		},
	)
	return report, nil
}
