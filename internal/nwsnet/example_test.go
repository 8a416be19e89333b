package nwsnet_test

import (
	"context"
	"fmt"

	"nwscpu/internal/nwsnet"
)

// A minimal in-process NWS: memory plus forecaster, one series, one query.
func Example() {
	memSrv := nwsnet.NewServer(nwsnet.NewMemory(0), nil)
	memAddr, err := memSrv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer memSrv.Close()

	fcSrv := nwsnet.NewServer(nwsnet.NewForecasterService([]string{memAddr}, 0), nil)
	fcAddr, err := fcSrv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer fcSrv.Close()

	ctx := context.Background()
	c := nwsnet.NewClient(0)
	points := [][2]float64{{0, 0.9}, {10, 0.9}, {20, 0.9}}
	if err := c.StoreCtx(ctx, memAddr, "box/cpu/nws_hybrid", points); err != nil {
		fmt.Println(err)
		return
	}
	fc, err := c.ForecastCtx(ctx, fcAddr, "box/cpu/nws_hybrid")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("next availability: %.0f%%\n", fc.Value*100)
	// Output: next availability: 90%
}
