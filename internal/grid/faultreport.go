package grid

import (
	"encoding/json"
	"fmt"
	"io"

	"nwscpu/internal/report"
)

// FaultSchemaVersion identifies the fault-campaign JSON report layout. Bump
// it on any breaking change to the FaultReport structure.
const FaultSchemaVersion = "nws/fault-report/v2"

// FaultReport is the robustness output of one fault campaign: the seeded
// schedule it ran, both arms' scores, and the invariant verdicts. It is
// built exclusively from slices populated in deterministic order (events in
// schedule order, arms repair-on first, verdicts in a fixed sequence), so
// both emitters are byte-stable for a given configuration.
type FaultReport struct {
	Schema   string            `json:"schema"`
	Seed     int64             `json:"seed"`
	Config   FaultReportConfig `json:"config"`
	Events   []FaultEvent      `json:"events"`
	Arms     []ArmResult       `json:"arms"`
	Verdicts []Verdict         `json:"verdicts"`
}

// FaultReportConfig echoes the campaign parameters into the report, making
// it self-describing and a reproduction recipe.
type FaultReportConfig struct {
	Hosts          int     `json:"hosts"`
	Rounds         int     `json:"rounds"`
	CadenceS       float64 `json:"cadence_s"`
	TickS          float64 `json:"tick_s"`
	Replicas       int     `json:"replicas"`
	Quorum         int     `json:"quorum"`
	BacklogCap     int     `json:"backlog_cap"`
	CrashRounds    int     `json:"crash_rounds"`
	RecoveryRounds int     `json:"recovery_rounds"`
}

// ArmResult scores one arm of the campaign (the same schedule with the
// repair plane on or off).
type ArmResult struct {
	Name   string `json:"name"`
	Repair bool   `json:"repair"`

	// LedgerPoints counts distinct quorum-acknowledged measurements (the
	// ground truth); MissedWrites sums, over them, the replicas that were
	// down when each was acknowledged; MissingPoints counts ledger entries
	// absent from any replica at the end of the run.
	LedgerPoints    uint64 `json:"ledger_points"`
	MissedWrites    uint64 `json:"missed_writes"`
	MissingPoints   uint64 `json:"missing_points"`
	DivergentSeries int    `json:"divergent_series"`

	// ConvergedRound is the first round after the last replica fault
	// cleared at which all replicas were bit-identical (-1 = never);
	// RoundsToConverge is its distance from the fault clearing.
	ConvergedRound   int `json:"converged_round"`
	RoundsToConverge int `json:"rounds_to_converge"`

	Probes         uint64 `json:"probes"`
	ProbeFailures  uint64 `json:"probe_failures"`
	QuorumFailures uint64 `json:"quorum_failures"`

	RepairRounds          uint64 `json:"repair_rounds"`
	RepairPointsRecovered uint64 `json:"repair_points_recovered"`
}

// WriteJSON emits the report as indented JSON (schema FaultSchemaVersion).
func (r *FaultReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteText emits the human-readable robustness report: the schedule, both
// arms side by side, and the invariant verdicts.
func (r *FaultReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "nwsgrid fault campaign report (%s)\n", r.Schema); err != nil {
		return err
	}
	c := r.Config
	if _, err := fmt.Fprintf(w, "seed %d  hosts %d  rounds %d  replicas %d (quorum %d)  backlog cap %d\n\n",
		r.Seed, c.Hosts, c.Rounds, c.Replicas, c.Quorum, c.BacklogCap); err != nil {
		return err
	}

	t := report.NewTable("round", "fault", "target", "rounds")
	for _, ev := range r.Events {
		dur := fmt.Sprintf("%d", ev.Rounds)
		if ev.Kind == FaultSkew {
			dur = "-"
		}
		t.AddRow(fmt.Sprintf("%d", ev.Round), string(ev.Kind), ev.Target, dur)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	t = report.NewTable("metric", "repair-on", "repair-off")
	row := func(name string, f func(a ArmResult) string) {
		t.AddRow(name, f(r.Arms[0]), f(r.Arms[1]))
	}
	row("ledger points", func(a ArmResult) string { return fmt.Sprintf("%d", a.LedgerPoints) })
	row("missed writes", func(a ArmResult) string { return fmt.Sprintf("%d", a.MissedWrites) })
	row("missing points", func(a ArmResult) string { return fmt.Sprintf("%d", a.MissingPoints) })
	row("divergent series", func(a ArmResult) string { return fmt.Sprintf("%d", a.DivergentSeries) })
	row("rounds to converge", func(a ArmResult) string { return fmt.Sprintf("%d", a.RoundsToConverge) })
	row("probe failures", func(a ArmResult) string { return fmt.Sprintf("%d/%d", a.ProbeFailures, a.Probes) })
	row("quorum failures", func(a ArmResult) string { return fmt.Sprintf("%d", a.QuorumFailures) })
	row("repair rounds", func(a ArmResult) string { return fmt.Sprintf("%d", a.RepairRounds) })
	row("repair points recovered", func(a ArmResult) string { return fmt.Sprintf("%d", a.RepairPointsRecovered) })
	if err := t.Render(w); err != nil {
		return err
	}

	if _, err := fmt.Fprintln(w, "invariant verdicts"); err != nil {
		return err
	}
	t = report.NewTable("config", "invariant", "value", "verdict")
	for _, v := range r.Verdicts {
		verdict := "PASS"
		if !v.Pass {
			verdict = "FAIL"
		}
		t.AddRow(v.Config, v.SLO, fmt.Sprintf("%g", v.Value), verdict)
	}
	return t.Render(w)
}
