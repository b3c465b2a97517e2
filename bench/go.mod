module tse/bench

go 1.24

require tse v0.0.0

replace tse => ../
