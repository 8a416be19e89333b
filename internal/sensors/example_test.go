package sensors_test

import (
	"fmt"
	"math"

	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
)

// Measuring a simulated host with the paper's Equation 1 sensor.
func ExampleLoadAvgSensor() {
	host := simos.New(simos.DefaultConfig())
	host.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 7200})
	host.RunUntil(600) // let the load average converge

	la := sensors.NewLoadAvgSensor(sensors.SimHost{H: host})
	fmt.Printf("availability ~50%%: %v\n", math.Abs(la.Measure()-0.5) < 0.05)
	// Output: availability ~50%: true
}

// The ground-truth test process of Equation 3.
func ExampleRunTest() {
	host := simos.New(simos.DefaultConfig())
	sh := sensors.SimHost{H: host}
	frac := sensors.RunTest(sh, 10) // idle machine: the process gets it all
	fmt.Printf("%.0f%%\n", frac*100)
	// Output: 100%
}
