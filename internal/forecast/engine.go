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
type tracker struct {
	f          Forecaster
	pending    float64 // forecast issued for the next value
	hasPending bool
	sumAbs     float64
	sumSq      float64
	n          int
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

// errWindow keeps one member's recent absolute and squared errors in rings,
// so that a windowed engine can rank by recent accuracy, as the paper
// describes ("most accurate over the recent set of measurements").
//
// The windowed error sums are maintained on push/evict instead of re-summed
// from the rings on every score, so scoring is O(1) regardless of the
// selection window.
//
// Floating-point addition is not associative, so a maintained add/subtract
// sum can drift a few ulps away from the freshly re-summed ring the previous
// implementation scored with — enough to flip the argmin between two members
// whose windows hold identical errors (selection must stay bit-compatible:
// the paper's selection-dynamics tables ride on these tie-breaks). Each
// window therefore also carries a running bound on |maintained − exact|
// (standard FP error analysis: each add/subtract errs by at most one ulp of
// its result). When the bound cannot separate the best member from a rival,
// the engine resynchronizes the sums from the rings — bitwise the seed's
// fresh summation — and re-ranks; away from such near-ties the bound proves
// the fast path picks the identical member. Sums are additionally resynced
// every Cap evictions so the bound (and drift) stays small forever.
type errWindow struct {
	abs, sq       series.Ring
	sumAbs, sumSq float64
	errAbs, errSq float64 // bounds on |sum - exact window sum|
	evicts        int     // evictions since the last sum resynchronization
}

// ulp is the double-precision unit roundoff (2^-52).
const ulp = 0x1p-52

func (w *errWindow) record(absErr, sqErr float64) {
	if w.abs.Full() {
		w.sumAbs -= w.abs.At(0)
		w.errAbs += ulp * math.Abs(w.sumAbs)
		w.sumSq -= w.sq.At(0)
		w.errSq += ulp * math.Abs(w.sumSq)
		w.evicts++
	}
	w.abs.Push(absErr)
	w.sq.Push(sqErr)
	w.sumAbs += absErr
	w.errAbs += ulp * math.Abs(w.sumAbs)
	w.sumSq += sqErr
	w.errSq += ulp * math.Abs(w.sumSq)
	if w.evicts >= w.abs.Cap() {
		w.resync()
	}
}

// resync replaces the maintained window sums with fresh re-sums of the
// rings (insertion order — bitwise the summation the seed selector used)
// and resets the drift bounds to a fresh sum's own worst-case roundoff.
func (w *errWindow) resync() {
	n := float64(w.abs.Len())
	w.sumAbs = ringSum(&w.abs)
	w.sumSq = ringSum(&w.sq)
	w.errAbs = ulp * n * math.Abs(w.sumAbs)
	w.errSq = ulp * n * math.Abs(w.sumSq)
	w.evicts = 0
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
// a fresh sum's own worst-case roundoff, and the dividing roundoff.
func (w *errWindow) scoreBound(by SelectBy) float64 {
	if w.abs.Len() == 0 {
		return 0
	}
	n := float64(w.abs.Len())
	sum, drift := w.sumAbs, w.errAbs
	if by == ByMSE {
		sum, drift = w.sumSq, w.errSq
	}
	mag := math.Abs(sum) + drift
	return (drift+2*ulp*n*mag)/n + 2*ulp*(mag/n)
}

// Prediction is the engine's one-step-ahead output.
type Prediction struct {
	Value  float64 // predicted next measurement
	Method string  // name of the forecaster that produced it
	MAE    float64 // that forecaster's cumulative mean absolute error
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
// Forecast is O(1) and allocation-free.
//
// Engine is not safe for concurrent use; wrap it in a mutex if shared.
type Engine struct {
	trackers []tracker
	wins     []errWindow // by tracker index; nil = cumulative selection
	selectBy SelectBy
	n        int // measurements seen
	best     int // cached index of the best-scoring tracker, -1 = none
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
	e := &Engine{trackers: make([]tracker, len(bank)), selectBy: selectBy, best: -1}
	for i, f := range bank {
		for _, g := range bank[:i] {
			if g.Name() == f.Name() {
				panic(fmt.Sprintf("forecast: duplicate forecaster name %q", f.Name()))
			}
		}
		e.trackers[i].f = f
	}
	if selectWindow > 0 {
		e.wins = make([]errWindow, len(bank))
		for i := range e.wins {
			e.wins[i].abs = *series.NewRing(selectWindow)
			e.wins[i].sq = *series.NewRing(selectWindow)
		}
	}
	mEngineEngines.Inc()
	return e
}

// DefaultBank returns the standard NWS-style forecaster complement, 23
// members: last value, running mean, sliding means and medians over several
// windows, trimmed means, exponential smoothing over several gains,
// adaptive-gain smoothing, and a damped trend.
//
// The 12 members that read past values share one history: a ring of the
// last 51 values and a sorted window per length in {5, 10, 20, 30, 50}. The
// whole bank is one allocation. Feed its members the same values in the
// same order, as Engine does; a member fed out of lockstep with the history
// panics. To run a member alone, take it from a bank of its own.
func DefaultBank() []Forecaster {
	b := new(bank)
	h := &b.hist
	h.buf, h.wins = b.ring[:], b.wins[:]
	free := b.sorted[:]
	for i, bw := range bankWindows {
		b.wins[i], free = free[:0:bw.w], free[bw.w:]
		b.means[i] = slidingMean(bw.mean, h, bw.w)
		b.medians[i] = slidingMedian(bw.median, h, bw.w)
	}
	b.trims = [2]TrimmedMean{trimmedMean("sw_trim_30_30", h, 30, 0.3), trimmedMean("sw_trim_50_20", h, 50, 0.2)}
	b.last, b.run = *NewLastValue(), *NewRunningMean()
	b.exps = [7]ExpSmooth{*NewExpSmooth("exp_05", 0.05), *NewExpSmooth("exp_10", 0.10), *NewExpSmooth("exp_20", 0.20),
		*NewExpSmooth("exp_30", 0.30), *NewExpSmooth("exp_50", 0.50), *NewExpSmooth("exp_75", 0.75), *NewExpSmooth("exp_90", 0.90)}
	b.trigg, b.trend = *NewTriggLeach(0.2), *NewTrend(0.5)
	return []Forecaster{
		&b.last, &b.run,
		&b.means[0], &b.means[1], &b.means[2], &b.means[3], &b.means[4],
		&b.medians[0], &b.medians[1], &b.medians[2], &b.medians[3], &b.medians[4],
		&b.trims[0], &b.trims[1],
		&b.exps[0], &b.exps[1], &b.exps[2], &b.exps[3], &b.exps[4], &b.exps[5], &b.exps[6],
		&b.trigg, &b.trend,
	}
}

// bank is one DefaultBank: its members, the history they share, and the
// history's ring and sorted windows.
type bank struct {
	hist    history
	ring    [51]float64 // the longest window + 1
	sorted  [5 + 10 + 20 + 30 + 50]float64
	wins    [5]series.OrderWindow
	last    LastValue
	run     RunningMean
	means   [5]SlidingMean
	medians [5]SlidingMedian
	trims   [2]TrimmedMean
	exps    [7]ExpSmooth
	trigg   TriggLeach
	trend   Trend
}

// bankWindows are DefaultBank's window lengths and the names of its sliding
// mean and median over each, constants so that a bank formats no name.
var bankWindows = [5]struct {
	w            int
	mean, median string
}{
	{5, "sw_mean_5", "sw_median_5"},
	{10, "sw_mean_10", "sw_median_10"},
	{20, "sw_mean_20", "sw_median_20"},
	{30, "sw_mean_30", "sw_median_30"},
	{50, "sw_mean_50", "sw_median_50"},
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
	for i := range e.trackers {
		t := &e.trackers[i]
		if t.hasPending {
			d := t.pending - v
			absErr, sqErr := math.Abs(d), d*d
			t.sumAbs += absErr
			t.sumSq += sqErr
			t.n++
			if e.wins != nil {
				e.wins[i].record(absErr, sqErr)
			}
		}
		t.f.Update(v)
		t.pending, t.hasPending = t.f.Forecast()
		if !t.hasPending {
			continue
		}
		score := e.score(i)
		// Members with no scored forecasts yet (score == +Inf) still beat
		// "no forecast at all": fall back to the first pending one.
		if best == -1 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if e.wins != nil && best >= 0 && e.ambiguous(best, bestScore) {
		// A rival's score interval overlaps the leader's: the maintained
		// sums cannot prove which member a fresh re-sum would rank first
		// (typically an exact tie between members tracking the series
		// equally well). Resynchronize and re-rank on the fresh sums, which
		// reproduce the previous implementation's scores bit for bit.
		best = -1
		bestScore = math.Inf(1)
		for i := range e.trackers {
			e.wins[i].resync()
			if !e.trackers[i].hasPending {
				continue
			}
			if score := e.score(i); best == -1 || score < bestScore {
				best, bestScore = i, score
			}
		}
	}
	e.best = best
	e.n++
}

// score returns tracker i's selection criterion: its error over the
// selection window when one is configured and has recorded an error, else
// its cumulative error. O(1) either way.
func (e *Engine) score(i int) float64 {
	if e.wins != nil && e.wins[i].abs.Len() > 0 {
		w := &e.wins[i]
		if e.selectBy == ByMSE {
			return w.sumSq / float64(w.sq.Len())
		}
		return w.sumAbs / float64(w.abs.Len())
	}
	if e.selectBy == ByMSE {
		return e.trackers[i].mse()
	}
	return e.trackers[i].mae()
}

// ambiguous reports whether any rival tracker's score could, within the
// floating-point drift bounds, rank at or ahead of the current leader's.
// Only windowed engines need it: cumulative sums follow the seed's exact
// operation sequence.
func (e *Engine) ambiguous(best int, bestScore float64) bool {
	hi := bestScore + e.wins[best].scoreBound(e.selectBy)
	for i := range e.trackers {
		if i == best || !e.trackers[i].hasPending {
			continue
		}
		if e.score(i)-e.wins[i].scoreBound(e.selectBy) <= hi {
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

// forecast is the unmetered selection read behind Forecast: the
// nws_forecast_engine_forecasts_total counter must count only forecasts
// served by Forecast itself, not the selector's own bookkeeping.
func (e *Engine) forecast() (Prediction, bool) {
	if e.best < 0 {
		return Prediction{}, false
	}
	t := &e.trackers[e.best]
	return Prediction{Value: t.pending, Method: t.f.Name(), MAE: t.mae()}, true
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
	for i := range e.trackers {
		t := &e.trackers[i]
		out[i] = MethodError{Name: t.f.Name(), MAE: t.mae(), MSE: t.mse(), N: t.n}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MAE < out[j].MAE })
	return out
}
