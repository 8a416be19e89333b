package forecast

import (
	"fmt"
	"math"
	"sort"

	"nwscpu/internal/series"
)

// SelectBy chooses the criterion the engine uses to rank its forecasters.
type SelectBy int

const (
	// ByMAE ranks forecasters by cumulative mean absolute error (the NWS
	// default and the error metric reported throughout the paper).
	ByMAE SelectBy = iota
	// ByMSE ranks forecasters by cumulative mean squared error.
	ByMSE
)

// tracker pairs a Forecaster with its running one-step-ahead error record.
// With a selection window configured it also keeps the recent absolute and
// squared errors in rings so the selector can rank by recent accuracy, as
// the paper describes ("most accurate over the recent set of measurements").
//
// All selection state is incremental: the windowed error sums are maintained
// on push/evict instead of re-summed from the rings on every score, so
// scoring a tracker is O(1) regardless of the selection window.
//
// Floating-point addition is not associative, so a maintained add/subtract
// sum can drift a few ulps away from the freshly re-summed ring the previous
// implementation scored with — enough to flip the argmin between two members
// whose windows hold identical errors (selection must stay bit-compatible:
// the paper's selection-dynamics tables ride on these tie-breaks). Each
// tracker therefore also carries a running bound on |maintained − exact|
// (standard FP error analysis: each add/subtract errs by at most one ulp of
// its result). When the bound cannot separate the best member from a rival,
// the engine resynchronizes the sums from the rings — bitwise the seed's
// fresh summation — and re-ranks; away from such near-ties the bound proves
// the fast path picks the identical member. Sums are additionally resynced
// every Cap evictions so the bound (and drift) stays small forever.
type tracker struct {
	f          Forecaster
	pending    float64 // forecast issued for the next value
	hasPending bool
	sumAbs     float64
	sumSq      float64
	n          int

	winAbs    *series.Ring // nil = cumulative selection
	winSq     *series.Ring
	winSumAbs float64
	winSumSq  float64
	winErrAbs float64 // bound on |winSumAbs - exact window sum|
	winErrSq  float64
	winEvicts int // evictions since the last sum resynchronization
}

// ulp is the double-precision unit roundoff (2^-52).
const ulp = 0x1p-52

func (t *tracker) record(absErr, sqErr float64) {
	t.sumAbs += absErr
	t.sumSq += sqErr
	t.n++
	if t.winAbs == nil {
		return
	}
	if t.winAbs.Full() {
		t.winSumAbs -= t.winAbs.At(0)
		t.winErrAbs += ulp * math.Abs(t.winSumAbs)
		t.winSumSq -= t.winSq.At(0)
		t.winErrSq += ulp * math.Abs(t.winSumSq)
		t.winEvicts++
	}
	t.winAbs.Push(absErr)
	t.winSq.Push(sqErr)
	t.winSumAbs += absErr
	t.winErrAbs += ulp * math.Abs(t.winSumAbs)
	t.winSumSq += sqErr
	t.winErrSq += ulp * math.Abs(t.winSumSq)
	if t.winEvicts >= t.winAbs.Cap() {
		t.resyncWin()
	}
}

// resyncWin replaces the maintained window sums with fresh re-sums of the
// rings (insertion order — bitwise the summation the seed selector used)
// and resets the drift bounds to a fresh sum's own worst-case roundoff.
func (t *tracker) resyncWin() {
	if t.winAbs == nil {
		return
	}
	n := float64(t.winAbs.Len())
	t.winSumAbs = ringSum(t.winAbs)
	t.winSumSq = ringSum(t.winSq)
	t.winErrAbs = ulp * n * math.Abs(t.winSumAbs)
	t.winErrSq = ulp * n * math.Abs(t.winSumSq)
	t.winEvicts = 0
}

// ringSum re-sums a ring's contents in insertion order (the same summation
// the seed selector performed on every score).
func ringSum(r *series.Ring) float64 {
	var sum float64
	for i := 0; i < r.Len(); i++ {
		sum += r.At(i)
	}
	return sum
}

// scoreBound returns a conservative bound on how far score may sit from the
// score a fresh ring re-sum would produce: the maintained sum's drift bound,
// a fresh sum's own worst-case roundoff, and the dividing roundoff. Zero for
// cumulative trackers, whose sums are maintained with the exact operation
// sequence the seed used.
func (t *tracker) scoreBound(by SelectBy) float64 {
	if t.winAbs == nil || t.winAbs.Len() == 0 {
		return 0
	}
	n := float64(t.winAbs.Len())
	sum, drift := t.winSumAbs, t.winErrAbs
	if by == ByMSE {
		sum, drift = t.winSumSq, t.winErrSq
	}
	mag := math.Abs(sum) + drift
	return (drift+2*ulp*n*mag)/n + 2*ulp*(mag/n)
}

// score returns the selection criterion value: windowed recent error when a
// window is configured, else the cumulative error. O(1) either way.
func (t *tracker) score(by SelectBy) float64 {
	if t.winAbs != nil && t.winAbs.Len() > 0 {
		if by == ByMSE {
			return t.winSumSq / float64(t.winSq.Len())
		}
		return t.winSumAbs / float64(t.winAbs.Len())
	}
	if by == ByMSE {
		return t.mse()
	}
	return t.mae()
}

func (t *tracker) mae() float64 {
	if t.n == 0 {
		return math.Inf(1)
	}
	return t.sumAbs / float64(t.n)
}

func (t *tracker) mse() float64 {
	if t.n == 0 {
		return math.Inf(1)
	}
	return t.sumSq / float64(t.n)
}

// Prediction is the engine's one-step-ahead output.
type Prediction struct {
	Value  float64 // predicted next measurement
	Method string  // name of the forecaster that produced it
	MAE    float64 // that forecaster's cumulative mean absolute error
	MSE    float64 // that forecaster's cumulative mean squared error
}

// Engine is the NWS dynamic forecaster: it runs a bank of Forecasters in
// parallel over the same series, scores each one's one-step-ahead forecasts
// against the measurements that subsequently arrive, and forwards the
// prediction of the member with the lowest cumulative error. Wolski showed
// this choice tracks, and sometimes beats, the best single member.
//
// Selection is incremental: Update maintains every tracker's score and the
// best-member index in the same O(bank) pass that absorbs the measurement
// (amortized O(1) per bank member), and the index stays cached until the
// next Update — scores only change when a measurement arrives — so
// Forecast and BestMethod are O(1) and allocation-free.
//
// Engine is not safe for concurrent use; wrap it in a mutex if shared.
type Engine struct {
	trackers []*tracker
	selectBy SelectBy
	windowed bool // selection window configured (incremental sums in play)
	n        int  // measurements seen
	best     int  // cached index of the best-scoring tracker, -1 = none
}

// NewEngine builds an engine over the given forecasters with cumulative
// selection. It panics if the bank is empty or contains duplicate names
// (names key the reports).
func NewEngine(selectBy SelectBy, bank ...Forecaster) *Engine {
	return NewWindowedEngine(selectBy, 0, bank...)
}

// NewWindowedEngine builds an engine that ranks its members by their error
// over the most recent selectWindow scored forecasts (0 = entire history).
// A short window lets the selection react when the series' character
// changes; a long one resists noise.
func NewWindowedEngine(selectBy SelectBy, selectWindow int, bank ...Forecaster) *Engine {
	if len(bank) == 0 {
		panic("forecast: NewEngine needs at least one forecaster")
	}
	if selectWindow < 0 {
		panic("forecast: selection window must be >= 0")
	}
	seen := make(map[string]bool, len(bank))
	ts := make([]*tracker, len(bank))
	for i, f := range bank {
		if seen[f.Name()] {
			panic(fmt.Sprintf("forecast: duplicate forecaster name %q", f.Name()))
		}
		seen[f.Name()] = true
		ts[i] = &tracker{f: f}
		if selectWindow > 0 {
			ts[i].winAbs = series.NewRing(selectWindow)
			ts[i].winSq = series.NewRing(selectWindow)
		}
	}
	mEngineEngines.Inc()
	return &Engine{
		trackers: ts,
		selectBy: selectBy,
		windowed: selectWindow > 0,
		best:     -1,
	}
}

// DefaultBank returns the standard NWS-style forecaster complement: last
// value, running mean, sliding means and medians over several windows,
// trimmed means, exponential smoothing over several gains, adaptive-gain
// smoothing, adaptive windows, and a damped trend.
//
// The members of one bank that read the sorted window of one length — the
// sliding medians, the trimmed means and the adaptive median — share it,
// so an Engine pushes each measurement into 5 order windows rather than
// 11. Feed the members of one bank the same values in the same order, as
// Engine does; a member fed out of lockstep with the window it shares
// panics. To run a member alone, take it from a bank of its own.
func DefaultBank() []Forecaster {
	pool := windowPool{}
	return []Forecaster{
		NewLastValue(),
		NewRunningMean(),
		NewSlidingMean(5),
		NewSlidingMean(10),
		NewSlidingMean(20),
		NewSlidingMean(30),
		NewSlidingMean(50),
		newSlidingMedian(pool, 5),
		newSlidingMedian(pool, 10),
		newSlidingMedian(pool, 20),
		newSlidingMedian(pool, 30),
		newSlidingMedian(pool, 50),
		newTrimmedMean(pool, 30, 0.3),
		newTrimmedMean(pool, 50, 0.2),
		NewExpSmooth("exp_05", 0.05),
		NewExpSmooth("exp_10", 0.10),
		NewExpSmooth("exp_20", 0.20),
		NewExpSmooth("exp_30", 0.30),
		NewExpSmooth("exp_50", 0.50),
		NewExpSmooth("exp_75", 0.75),
		NewExpSmooth("exp_90", 0.90),
		NewTriggLeach(0.2),
		NewAdaptiveWindowMean(5, 10, 20, 50),
		newAdaptiveWindow("adapt_median", true, pool, []int{5, 10, 20, 50}),
		NewTrend(0.5),
	}
}

// NewDefaultEngine returns an Engine over DefaultBank selecting by MAE —
// the configuration evaluated in the paper.
func NewDefaultEngine() *Engine { return NewEngine(ByMAE, DefaultBank()...) }

// ExtendedBank is DefaultBank plus the model-based forecasters added beyond
// the paper: Yule-Walker AR(p) fits and a daily-cycle seasonal predictor
// (period in samples; 8640 is 24 hours of 10-second measurements).
func ExtendedBank(seasonalPeriod int) []Forecaster {
	bank := DefaultBank()
	bank = append(bank,
		NewAR(2, 120, 25),
		NewAR(8, 240, 25),
		NewHolt("holt_30_10", 0.3, 0.1),
	)
	if seasonalPeriod >= 2 {
		bank = append(bank, NewSeasonal(seasonalPeriod, 7))
	}
	return bank
}

// NewExtendedEngine returns an Engine over ExtendedBank selecting by MAE.
func NewExtendedEngine(seasonalPeriod int) *Engine {
	return NewEngine(ByMAE, ExtendedBank(seasonalPeriod)...)
}

// Update feeds the next measurement: every member's outstanding forecast is
// scored against v, then every member absorbs v. The best-member index is
// re-derived in the same pass — this is the only place scores change, so
// every query between Updates reads the cached selection.
func (e *Engine) Update(v float64) {
	mEngineUpdates.Inc()
	best := -1
	bestScore := math.Inf(1)
	for i, t := range e.trackers {
		if t.hasPending {
			d := t.pending - v
			t.record(math.Abs(d), d*d)
		}
		t.f.Update(v)
		t.pending, t.hasPending = t.f.Forecast()
		if !t.hasPending {
			continue
		}
		score := t.score(e.selectBy)
		// Members with no scored forecasts yet (score == +Inf) still beat
		// "no forecast at all": fall back to the first pending one.
		if best == -1 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if e.windowed && best >= 0 && e.ambiguous(best, bestScore) {
		// A rival's score interval overlaps the leader's: the maintained
		// sums cannot prove which member a fresh re-sum would rank first
		// (typically an exact tie between members tracking the series
		// equally well). Resynchronize and re-rank on the fresh sums, which
		// reproduce the previous implementation's scores bit for bit.
		best = -1
		bestScore = math.Inf(1)
		for i, t := range e.trackers {
			t.resyncWin()
			if !t.hasPending {
				continue
			}
			if score := t.score(e.selectBy); best == -1 || score < bestScore {
				best, bestScore = i, score
			}
		}
	}
	e.best = best
	e.n++
}

// ambiguous reports whether any rival tracker's score could, within the
// floating-point drift bounds, rank at or ahead of the current leader's.
func (e *Engine) ambiguous(best int, bestScore float64) bool {
	hi := bestScore + e.trackers[best].scoreBound(e.selectBy)
	for i, t := range e.trackers {
		if i == best || !t.hasPending {
			continue
		}
		if t.score(e.selectBy)-t.scoreBound(e.selectBy) <= hi {
			return true
		}
	}
	return false
}

// N returns the number of measurements seen.
func (e *Engine) N() int { return e.n }

// Forecast returns the prediction of the currently best-scoring member.
// ok is false until at least one member can forecast.
func (e *Engine) Forecast() (Prediction, bool) {
	mEngineForecasts.Inc()
	return e.forecast()
}

// forecast is the unmetered selection read behind Forecast and BestMethod:
// the nws_forecast_engine_forecasts_total counter must count only forecasts
// served by Forecast itself, not the selector's own bookkeeping.
func (e *Engine) forecast() (Prediction, bool) {
	if e.best < 0 {
		return Prediction{}, false
	}
	t := e.trackers[e.best]
	return Prediction{Value: t.pending, Method: t.f.Name(), MAE: t.mae(), MSE: t.mse()}, true
}

// MethodError summarizes one bank member's accuracy.
type MethodError struct {
	Name string
	MAE  float64
	MSE  float64
	N    int
}

// Report returns the per-member error summary sorted by ascending MAE.
// Members that have not yet been scored report MAE and MSE of +Inf.
func (e *Engine) Report() []MethodError {
	out := make([]MethodError, len(e.trackers))
	for i, t := range e.trackers {
		out[i] = MethodError{Name: t.f.Name(), MAE: t.mae(), MSE: t.mse(), N: t.n}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MAE < out[j].MAE })
	return out
}

// BestMethod returns the name of the member the engine would forward right
// now, or "" if none has forecast yet.
func (e *Engine) BestMethod() string {
	p, ok := e.forecast()
	if !ok {
		return ""
	}
	return p.Method
}
