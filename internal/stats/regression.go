package stats

import "errors"

// LinFit holds the result of an ordinary least-squares fit y = Intercept +
// Slope*x.
type LinFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
}

// LinearRegression fits y = a + b*x by ordinary least squares. xs and ys must
// have equal length of at least two, and xs must not be constant.
func LinearRegression(xs, ys []float64) (LinFit, error) {
	if len(xs) != len(ys) {
		return LinFit{}, errors.New("stats: LinearRegression length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return LinFit{}, ErrShort
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinFit{}, errors.New("stats: LinearRegression degenerate x")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinFit{Slope: b, Intercept: a, R2: r2}, nil
}
