module filaments/benchmark

go 1.22

require filaments v0.0.0

replace filaments => ../
