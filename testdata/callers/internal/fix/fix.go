// Package fix is the caller gate's fixture: Gauge.Reset, Gauge.peak,
// Gauge.hist, Gauge.MarshalJSON, label and label.String are dead, and every
// other name is live through one shape a type-aware match can miss.
package fix

import "fmt"

// Counter is a live type.
type Counter struct{ n int }

// Reset is called directly.
func (c *Counter) Reset() { c.n = 0 }

// add is called only through adder, after a type assertion.
func (c *Counter) add(d int) { c.n += d }

// adder is an unexported interface used in a type assertion.
type adder interface{ add(int) }

// Gauge's Reset shares Counter.Reset's spelling but has no caller, its
// peak is written and never read, and its hist is only appended to itself.
type Gauge struct {
	v    int
	peak int
	hist []int
}

// Reset is dead: its one caller is itself.
func (g *Gauge) Reset() {
	if g.v > 0 {
		g.v = 0
		g.Reset()
	}
}

// MarshalJSON is dead: it satisfies json.Marshaler, but nothing converts a
// Gauge to an interface value, so no library can call it.
func (g Gauge) MarshalJSON() ([]byte, error) { return []byte("{}"), nil }

// Sizer is an interface whose methods Run calls.
type Sizer interface {
	Len() int
	Cap() int
}

// calls declares Len, which Client's embedding promotes into Sizer; calls
// alone does not satisfy Sizer.
type calls struct{}

// Len is called only through Sizer, on a Client.
func (calls) Len() int { return 1 }

// Client satisfies Sizer through its embedded calls and its own Cap.
type Client struct{ calls }

// Cap is called only through Sizer.
func (Client) Cap() int { return 1 }

// perOp is a generic type whose method is called on an instance.
type perOp[T any] [2]*T

// get is called on perOp[int].
func (p *perOp[T]) get(i int) *T { return p[i] }

// Report is what the app prints.
type Report struct {
	Hosts int `json:"hosts"` // written only, but encoding/json reads it
}

// String is called only by fmt, through fmt.Stringer.
func (r Report) String() string { return "report" }

// label is dead: only its own method's receiver names it.
type label struct{}

// String satisfies fmt.Stringer, but is dead: fmt would call it only had
// something made a label and printed it.
func (label) String() string { return "label" }

// unit is live only as the fmt.Stringer Units returns.
type unit struct{}

// String is called only by fmt, through the fmt.Stringer Units returns.
func (unit) String() string { return "unit" }

// Units returns a unit as a fmt.Stringer.
func Units() fmt.Stringer { return unit{} }

// Summary returns the app's report.
func Summary() Report { return Report{Hosts: 1} }

// Run uses every live name once.
func Run() int {
	var c Counter
	c.Reset()
	var x any = &c
	if a, ok := x.(adder); ok {
		a.add(2)
	}
	g := Gauge{v: 1, peak: 1}
	g.peak = 2
	g.hist = append(g.hist, g.v)
	var s Sizer = Client{}
	var p perOp[int]
	if p.get(0) == nil {
		return c.n + g.v + s.Len() + s.Cap()
	}
	return 0
}
