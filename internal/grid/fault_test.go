package grid

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

func TestFaultSchedulePropertiesAndDeterminism(t *testing.T) {
	cfg := DefaultFaultConfig().normalize()
	addrs := []string{"mem-0", "mem-1", "mem-2"}
	names := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
	a := faultSchedule(cfg, addrs, names)
	b := faultSchedule(cfg, addrs, names)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}

	kinds := map[FaultKind]int{}
	last := cfg.Rounds - cfg.RecoveryRounds
	prevEnd := 0
	for _, ev := range a {
		kinds[ev.Kind]++
		if ev.Kind == FaultSkew {
			continue
		}
		if ev.Round < prevEnd {
			t.Fatalf("replica faults overlap: %+v starts before round %d", ev, prevEnd)
		}
		prevEnd = ev.Round + ev.Rounds
		if prevEnd > last {
			t.Fatalf("replica fault %+v clears after the recovery window (round %d)", ev, last)
		}
	}
	for _, k := range []FaultKind{FaultCrash, FaultStall, FaultPartition, FaultSkew} {
		if kinds[k] == 0 {
			t.Fatalf("schedule never injects %s: %v", k, kinds)
		}
	}
	if a[0].Kind != FaultCrash || a[0].Rounds != cfg.CrashRounds {
		t.Fatalf("first event = %+v, want the guaranteed %d-round crash", a[0], cfg.CrashRounds)
	}
	if cfg.CrashRounds != 3*cfg.BacklogCap {
		t.Fatalf("crash outage %d rounds, want 3x the backlog window %d", cfg.CrashRounds, cfg.BacklogCap)
	}
}

// TestFaultCampaignVerdictsPinned pins the campaign's two acceptance
// verdicts: with repair, the replica crashed for three backlog windows
// converges bit-identically within the recovery budget with zero measurement
// loss; without repair, the same seeded schedule reproduces the divergence.
func TestFaultCampaignVerdictsPinned(t *testing.T) {
	rep, err := RunFaultCampaign(DefaultFaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != FaultSchemaVersion {
		t.Fatalf("schema = %q, want %q", rep.Schema, FaultSchemaVersion)
	}
	if len(rep.Arms) != 2 || rep.Arms[0].Name != "repair-on" || rep.Arms[1].Name != "repair-off" {
		t.Fatalf("arms = %+v, want repair-on then repair-off", rep.Arms)
	}
	on, off := rep.Arms[0], rep.Arms[1]

	if on.MissingPoints != 0 {
		t.Fatalf("repair arm lost %d measurements", on.MissingPoints)
	}
	if on.RoundsToConverge < 0 || on.RoundsToConverge > rep.Config.RecoveryRounds {
		t.Fatalf("repair arm converged in %d rounds, budget %d", on.RoundsToConverge, rep.Config.RecoveryRounds)
	}
	if on.ProbeFailures != 0 || on.QuorumFailures != 0 {
		t.Fatalf("repair arm availability: %d probe failures, %d quorum failures",
			on.ProbeFailures, on.QuorumFailures)
	}
	if on.RepairPointsRecovered == 0 {
		t.Fatal("repair arm recovered nothing — the campaign is not exercising anti-entropy")
	}

	if off.MissingPoints == 0 {
		t.Fatal("repair-off arm did not reproduce the divergence")
	}
	if off.ConvergedRound != -1 {
		t.Fatalf("repair-off arm converged at round %d without a repair plane", off.ConvergedRound)
	}
	checkMissedWrites(t, on, off)

	for _, v := range rep.Verdicts {
		if !v.Pass {
			t.Errorf("verdict %s (%s) failed: value %g", v.Config, v.SLO, v.Value)
		}
	}
	wantVerdicts := []string{
		"repair-on/zero-loss", "repair-on/convergence", "repair-on/availability",
		"repair-on/quorum", "repair-off/divergence-reproduced",
	}
	if len(rep.Verdicts) != len(wantVerdicts) {
		t.Fatalf("verdict count = %d, want %d", len(rep.Verdicts), len(wantVerdicts))
	}
	for i, want := range wantVerdicts {
		if rep.Verdicts[i].Config != want {
			t.Fatalf("verdict[%d] = %q, want %q", i, rep.Verdicts[i].Config, want)
		}
	}
}

// checkMissedWrites pins the campaign's exact ledger. Both arms run the
// identical schedule against the identical writer, so the ledger owes them
// the same missed writes; without repair every one of them is still missing
// at the end, and with repair anti-entropy recovered exactly them.
func checkMissedWrites(t *testing.T, on, off ArmResult) {
	t.Helper()
	if on.MissedWrites != off.MissedWrites {
		t.Fatalf("missed writes differ across arms: %d vs %d", on.MissedWrites, off.MissedWrites)
	}
	if off.MissedWrites == 0 {
		t.Fatal("no write missed a replica — the schedule proves nothing")
	}
	if off.MissingPoints != off.MissedWrites {
		t.Fatalf("repair-off missing %d points, missed writes %d", off.MissingPoints, off.MissedWrites)
	}
	if on.RepairPointsRecovered != on.MissedWrites {
		t.Fatalf("repair recovered %d points, missed writes %d", on.RepairPointsRecovered, on.MissedWrites)
	}
}

// TestFaultCampaignSeedSweep gates the campaign across seeds 1–20 at three
// and five replicas: every verdict passes, the ledger's missed writes are
// exactly what the repair-off arm lacks and what the repair-on arm recovered,
// and the repair-on arm converges inside the recovery budget.
func TestFaultCampaignSeedSweep(t *testing.T) {
	for _, replicas := range []int{3, 5} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("replicas%d/seed%d", replicas, seed), func(t *testing.T) {
				cfg := DefaultFaultConfig()
				cfg.Seed, cfg.Replicas = seed, replicas
				rep, err := RunFaultCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range rep.Verdicts {
					if !v.Pass {
						t.Errorf("verdict %s (%s) failed: value %g", v.Config, v.SLO, v.Value)
					}
				}
				on, off := rep.Arms[0], rep.Arms[1]
				checkMissedWrites(t, on, off)
				if on.RoundsToConverge < 0 || on.RoundsToConverge > rep.Config.RecoveryRounds {
					t.Fatalf("repair arm converged in %d rounds, budget %d", on.RoundsToConverge, rep.Config.RecoveryRounds)
				}
			})
		}
	}
}

func TestFaultCampaignByteIdentical(t *testing.T) {
	cfg := DefaultFaultConfig()
	emit := func() (string, string) {
		rep, err := RunFaultCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var j, x bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteText(&x); err != nil {
			t.Fatal(err)
		}
		return j.String(), x.String()
	}
	j1, x1 := emit()
	j2, x2 := emit()
	if j1 != j2 {
		t.Fatal("same config produced different JSON fault reports")
	}
	if x1 != x2 {
		t.Fatal("same config produced different text fault reports")
	}

	// A different seed reshuffles the schedule but the invariants hold.
	cfg2 := cfg
	cfg2.Seed = 7
	rep2, err := RunFaultCampaign(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep2.Verdicts {
		if !v.Pass {
			t.Errorf("seed 7 verdict %s failed: value %g", v.Config, v.Value)
		}
	}
	var j3 bytes.Buffer
	if err := rep2.WriteJSON(&j3); err != nil {
		t.Fatal(err)
	}
	if j3.String() == j1 {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestFaultReportTextMentionsEveryArm(t *testing.T) {
	rep, err := RunFaultCampaign(DefaultFaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		FaultSchemaVersion, "repair-on", "repair-off", "invariant verdicts",
		string(FaultCrash), string(FaultSkew),
		fmt.Sprintf("backlog cap %d", rep.Config.BacklogCap),
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("text report missing %q", want)
		}
	}
}
