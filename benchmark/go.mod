module nwscpu/benchmark

go 1.22

require nwscpu v0.0.0

replace nwscpu => ../
